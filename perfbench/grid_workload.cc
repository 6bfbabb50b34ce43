// paper_grid: the paper's grid slice run in-process, the way the bench
// binaries run it. Untraced runs drive bench::RunGrid (parallel cells,
// checkpoints, summary): a cold phase against an empty artifact store, then
// warm phases against the same store, where every cell restores instead of
// fitting. Traced runs replay both phases through the same public calls
// (bench::PrepareDataset, core::Harness::RunMethod) with delegating method and
// store wrappers, and check the traced scores against an untraced RunGrid.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/stopwatch.h"
#include "base/thread_pool.h"
#include "bench_util.h"
#include "core/harness.h"
#include "core/measures.h"
#include "io/atomic_file.h"
#include "io/json.h"
#include "layers.h"
#include "methods/factory.h"
#include "obs/metrics.h"
#include "store/artifact_store.h"
#include "workloads.h"

namespace tsg::perfbench {

namespace {

/// The slice runs at TSGBENCH_SCALE=1.
constexpr double kScale = 1.0;
/// The warm phase's wall time depends on how its cells fall onto the pool,
/// so an untraced run repeats it, each time into a fresh output directory,
/// and reports the median.
constexpr int kWarmPhases = 3;

bench::BenchConfig GridConfig(const GridArgs& args, const std::string& out_dir,
                              const std::string& store_dir) {
  bench::BenchConfig config;
  config.scale = kScale;
  config.seed = args.seed;
  config.out_dir = out_dir;
  config.store_dir = store_dir;
  std::filesystem::create_directories(out_dir);
  return config;
}

std::string CellName(const std::string& method, const std::string& dataset) {
  return method + "/" + dataset;
}

/// Parses a grid summary file into CellScores.
StatusOr<std::vector<CellScores>> ParseSummary(const std::string& text) {
  TSG_ASSIGN_OR_RETURN(const io::JsonValue doc, io::JsonValue::Parse(text));
  const io::JsonValue* cells = doc.Find("cells");
  if (cells == nullptr || !cells->is_array()) {
    return Status::InvalidArgument("summary has no cells array");
  }
  std::vector<CellScores> out;
  for (const io::JsonValue& cell : cells->array_items()) {
    CellScores parsed;
    parsed.method = cell.GetString("method", "");
    parsed.dataset = cell.GetString("dataset", "");
    if (cell.GetString("status", "") != "ok") {
      parsed.error = cell.GetString("error", "missing status");
    }
    if (const io::JsonValue* scores = cell.Find("scores")) {
      for (const auto& [measure, value] : scores->object_items()) {
        const io::JsonValue* mean = value.Find("mean");
        const io::JsonValue* stddev = value.Find("stddev");
        stats::MeanStd ms;
        // JsonWriter renders non-finite numbers as null; keep them visible.
        ms.mean = mean != nullptr && mean->is_number() ? mean->number_value() : NAN;
        ms.std = stddev != nullptr && stddev->is_number() ? stddev->number_value()
                                                          : NAN;
        parsed.scores.emplace_back(measure, ms);
      }
    }
    out.push_back(std::move(parsed));
  }
  return out;
}

/// Every cell ok with the full suite of finite scores.
void CheckSummaryCells(Checks& checks, const std::string& label,
                       const std::vector<CellScores>& cells, size_t num_cells,
                       size_t suite_size) {
  checks.Expect(label + ".cell_count", cells.size() == num_cells,
                std::to_string(cells.size()) + " cells, expected " +
                    std::to_string(num_cells));
  for (const CellScores& cell : cells) {
    const std::string name = label + "." + CellName(cell.method, cell.dataset);
    checks.Expect(name + ".ok", cell.error.empty(), cell.error);
    checks.Expect(name + ".suite_size", cell.scores.size() == suite_size,
                  std::to_string(cell.scores.size()) + " scores");
    for (const auto& [measure, ms] : cell.scores) {
      checks.Expect(name + "." + measure + ".finite",
                    std::isfinite(ms.mean) && std::isfinite(ms.std),
                    "non-finite score");
    }
  }
}

/// Bit-for-bit comparison of two score sets.
void CheckSameScores(Checks& checks, const std::string& label,
                     const std::vector<CellScores>& expected,
                     const std::vector<CellScores>& actual) {
  bool same = expected.size() == actual.size();
  std::string detail = same ? "" : "cell count differs";
  for (size_t i = 0; same && i < expected.size(); ++i) {
    const CellScores& a = expected[i];
    const CellScores& b = actual[i];
    if (a.method != b.method || a.dataset != b.dataset ||
        a.error.empty() != b.error.empty() ||
        a.scores.size() != b.scores.size()) {
      same = false;
      detail = "cell " + std::to_string(i) + " differs in identity or status";
      break;
    }
    for (size_t j = 0; j < a.scores.size(); ++j) {
      const auto& [ma, sa] = a.scores[j];
      const auto& [mb, sb] = b.scores[j];
      if (ma != mb || std::memcmp(&sa.mean, &sb.mean, sizeof(double)) != 0 ||
          std::memcmp(&sa.std, &sb.std, sizeof(double)) != 0) {
        same = false;
        detail = CellName(a.method, a.dataset) + " " + ma + " differs";
        break;
      }
    }
  }
  checks.Expect(label, same, detail);
}

/// Simulates and preprocesses every dataset of the slice, in order.
std::vector<core::Preprocessed> PrepareDatasets(const bench::BenchConfig& config) {
  std::vector<core::Preprocessed> prepared;
  for (const data::DatasetId id : kGridDatasets) {
    prepared.push_back(bench::PrepareDataset(id, config));
  }
  return prepared;
}

struct UntracedPhase {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  int64_t fits = 0;
  int64_t restores = 0;
  bench::GridResult result;
  std::string summary;
};

UntracedPhase RunUntracedPhase(const bench::BenchConfig& config,
                               const std::vector<std::string>& methods) {
  obs::MetricRegistry& registry = obs::MetricRegistry::Global();
  obs::Counter& fits = registry.GetCounter("harness.fit_calls");
  obs::Counter& restores = registry.GetCounter("harness.store.restored");
  UntracedPhase phase;
  const int64_t fits0 = fits.value();
  const int64_t restores0 = restores.value();
  const double cpu0 = ProcessCpuSeconds();
  const Stopwatch watch;
  phase.result = bench::RunGrid(config, methods, kGridDatasets);
  phase.wall_s = watch.ElapsedSeconds();
  phase.cpu_s = ProcessCpuSeconds() - cpu0;
  phase.fits = fits.value() - fits0;
  phase.restores = restores.value() - restores0;
  const StatusOr<std::string> summary =
      io::ReadFileToString(bench::GridSummaryPath(config));
  phase.summary = summary.ok() ? summary.value() : "";
  return phase;
}

}  // namespace

TracedPhase RunTracedPhase(const bench::BenchConfig& config,
                           const std::vector<std::string>& methods,
                           const std::vector<data::DatasetId>& datasets,
                           SpanRecorder& recorder, const std::string& phase_name) {
  TracedPhase phase;
  const Stopwatch watch;
  const SpanRecorder::Scope root(recorder, "grid.phase", phase_name);
  phase.root_span = root.id();
  store::ArtifactStore artifacts(config.store_dir);
  TracedStore traced_store(artifacts, recorder);
  core::HarnessOptions options = bench::GridHarnessOptions(config);
  options.store = &traced_store;
  core::Harness harness(options);

  const auto prepared = base::ParallelMap<core::Preprocessed>(
      static_cast<int64_t>(datasets.size()), 1, [&](int64_t di) {
        const data::DatasetId id = datasets[static_cast<size_t>(di)];
        const SpanRecorder::Scope span(recorder, "data.prepare",
                                       data::DatasetName(id), root.id());
        return bench::PrepareDataset(id, config);
      });

  const int64_t num_methods = static_cast<int64_t>(methods.size());
  const int64_t num_cells = num_methods * static_cast<int64_t>(datasets.size());
  phase.cells.resize(static_cast<size_t>(num_cells));
  phase.cell_seconds.resize(static_cast<size_t>(num_cells));
  base::ParallelFor(0, num_cells, 1, [&](int64_t begin, int64_t end) {
    for (int64_t cell = begin; cell < end; ++cell) {
      const core::Preprocessed& pre = prepared[static_cast<size_t>(cell / num_methods)];
      const std::string& method_name = methods[static_cast<size_t>(cell % num_methods)];
      CellScores& out = phase.cells[static_cast<size_t>(cell)];
      out.method = method_name;
      out.dataset = pre.train.name();
      auto method = methods::CreateMethod(method_name);
      if (!method.ok()) {
        out.error = method.status().ToString();
        continue;
      }
      const std::string cell_name = CellName(method_name, out.dataset);
      TracedMethod traced(std::move(method).value(), recorder, cell_name);
      const double start = recorder.Now();
      StatusOr<core::MethodRunResult> result = [&] {
        const SpanRecorder::Scope span(recorder, "harness.cell", cell_name, root.id());
        return harness.RunMethod(traced, pre.train, pre.test);
      }();
      phase.cell_seconds[static_cast<size_t>(cell)] = recorder.Now() - start;
      if (!result.ok()) {
        out.error = result.status().ToString();
        continue;
      }
      out.scores = std::move(result).value().scores;
    }
  });
  phase.wall_s = watch.ElapsedSeconds();
  phase.bytes_loaded = traced_store.bytes_loaded();
  phase.bytes_saved = traced_store.bytes_saved();
  return phase;
}

namespace {

/// Counts spans of `name` whose parent chain reaches `root`.
int64_t CountUnder(const std::vector<Span>& spans, const std::string& name,
                   int64_t root) {
  std::map<int64_t, int64_t> parent_of;
  for (const Span& span : spans) parent_of[span.id] = span.parent;
  int64_t count = 0;
  for (const Span& span : spans) {
    if (span.name != name) continue;
    for (int64_t p = span.parent; p >= 0; p = parent_of.count(p) ? parent_of[p] : -1) {
      if (p == root) {
        ++count;
        break;
      }
    }
  }
  return count;
}

/// Phase wall time covered by no cell span, plus the summed cell time.
void PhaseCoverage(const std::vector<Span>& spans, int64_t root, double* cell_sum,
                   double* uncovered, double* phase_seconds) {
  const Span* phase = nullptr;
  std::vector<std::pair<double, double>> cells;
  for (const Span& span : spans) {
    if (span.id == root) phase = &span;
    if (span.name == "harness.cell" && span.parent == root) {
      cells.emplace_back(span.start, span.end);
    }
  }
  *cell_sum = 0.0;
  *uncovered = 0.0;
  *phase_seconds = 0.0;
  if (phase == nullptr) return;
  *phase_seconds = phase->end - phase->start;
  std::sort(cells.begin(), cells.end());
  double cursor = phase->start;
  for (const auto& [start, end] : cells) {
    *cell_sum += end - start;
    if (start > cursor) *uncovered += start - cursor;
    cursor = std::max(cursor, end);
  }
  if (phase->end > cursor) *uncovered += phase->end - cursor;
}

}  // namespace

void AddGridMetrics(const SpanRecorder& recorder,
                    const std::vector<const TracedPhase*>& phases,
                    const TracedPhase& cells_of, MetricMap& m) {
  const std::vector<Span> spans = recorder.spans();
  m["harness.cell_s_p50"] = Median(cells_of.cell_seconds);
  m["harness.cell_s_max"] = Quantile(cells_of.cell_seconds, 1.0);
  const std::map<std::string, double> self = recorder.SelfSecondsByName();
  m["harness.self_s"] = self.count("harness.cell") ? self.at("harness.cell") : 0.0;
  const double threads = static_cast<double>(base::ThreadPool::Global().max_parallelism());
  double cells_total = 0.0, uncovered_total = 0.0, phases_total = 0.0;
  for (const TracedPhase* phase : phases) {
    double cell_sum = 0.0, uncovered = 0.0, phase_s = 0.0;
    PhaseCoverage(spans, phase->root_span, &cell_sum, &uncovered, &phase_s);
    cells_total += cell_sum;
    uncovered_total += uncovered;
    phases_total += phase_s;
  }
  m["grid.parallel_efficiency"] =
      phases_total > 0.0 ? cells_total / (threads * phases_total) : 0.0;
  m["grid.overhead_s"] = uncovered_total;
  m["trace.coverage"] = phases_total > 0.0 ? 1.0 - uncovered_total / phases_total : 0.0;
}

namespace {

int RunUntraced(const GridArgs& args, const std::vector<std::string>& methods) {
  Checks checks;
  const size_t num_cells = methods.size() * kGridDatasets.size();
  const size_t suite_size = core::DefaultMeasureSuite(false).size();
  const std::string store_dir = args.root + "/store";

  const UntracedPhase cold =
      RunUntracedPhase(GridConfig(args, args.root + "/cold", store_dir), methods);
  std::vector<UntracedPhase> warms;
  for (int i = 0; i < kWarmPhases; ++i) {
    warms.push_back(RunUntracedPhase(
        GridConfig(args, args.root + "/warm" + std::to_string(i), store_dir), methods));
  }

  checks.Expect("cold.no_failed_cells", cold.result.failures.empty(),
                std::to_string(cold.result.failures.size()) + " failed cells");
  checks.Expect("cold.fit_every_cell", cold.fits == static_cast<int64_t>(num_cells),
                std::to_string(cold.fits) + " fits");
  checks.Expect("summary.nonempty", !cold.summary.empty(), "cold summary missing");
  const StatusOr<std::vector<CellScores>> parsed = ParseSummary(cold.summary);
  checks.Expect("summary.parses", parsed.ok(),
                parsed.ok() ? "" : parsed.status().ToString());
  if (parsed.ok()) {
    CheckSummaryCells(checks, "summary", parsed.value(), num_cells, suite_size);
  }
  std::vector<double> warm_seconds;
  double wall_total = cold.wall_s;
  double warm_cpu = 0.0;
  int64_t warm_failed = 0;
  for (size_t i = 0; i < warms.size(); ++i) {
    const UntracedPhase& warm = warms[i];
    const std::string label = "warm" + std::to_string(i);
    checks.Expect(label + ".no_failed_cells", warm.result.failures.empty(),
                  std::to_string(warm.result.failures.size()) + " failed cells");
    checks.Expect(label + ".zero_fits", warm.fits == 0, std::to_string(warm.fits) + " fits");
    checks.Expect(label + ".restored_every_cell",
                  warm.restores == static_cast<int64_t>(num_cells),
                  std::to_string(warm.restores) + " restores");
    checks.Expect("summary.cold_equals_" + label, cold.summary == warm.summary,
                  "cold and warm grid summaries differ");
    warm_seconds.push_back(warm.wall_s);
    wall_total += warm.wall_s;
    warm_cpu += warm.cpu_s;
    warm_failed += static_cast<int64_t>(warm.result.failures.size());
  }

  const int64_t cold_failed = static_cast<int64_t>(cold.result.failures.size());
  const double cells_total = static_cast<double>((1 + warms.size()) * num_cells);
  MetricMap metrics;
  metrics["cold_ms"] = 1000.0 * cold.wall_s;
  metrics["warm_ms"] = 1000.0 * Median(warm_seconds);
  metrics["ops_per_s"] = cells_total / wall_total;
  metrics["cpu_ms_per_op"] = 1000.0 * (cold.cpu_s + warm_cpu) / cells_total;
  metrics["peak_rss_mb"] = PeakRssMb();
  MetricMap report;
  report["grid_cold_s"] = cold.wall_s;
  report["grid_warm_s"] = Median(warm_seconds);
  report["samples.warm"] = static_cast<double>(warms.size());
  report["cpu_s"] = cold.cpu_s + warm_cpu;
  report["cpu_s.cold"] = cold.cpu_s;
  report["cpu_s.warm"] = warm_cpu;
  report["rows.cold"] = static_cast<double>(cold.result.rows.size());
  report["attempted.cold.cell"] = static_cast<double>(num_cells);
  report["failed.cold.cell"] = static_cast<double>(cold_failed);
  report["attempted.warm.cell"] = static_cast<double>(warms.size() * num_cells);
  report["failed.warm.cell"] = static_cast<double>(warm_failed);

  WriteResult(checks, static_cast<int64_t>(cells_total), cold_failed + warm_failed,
              metrics, report);
  return checks.all_ok() ? 0 : 1;
}

int RunTraced(const GridArgs& args, const std::vector<std::string>& methods) {
  Checks checks;
  const size_t num_cells = methods.size() * kGridDatasets.size();
  const size_t suite_size = core::DefaultMeasureSuite(false).size();
  const std::string store_dir = args.root + "/store";
  SpanRecorder recorder;
  const RegistryView before = RegistryView::Capture();
  const base::ThreadPoolStats pool_before = base::ThreadPool::Global().stats();

  const TracedPhase cold = RunTracedPhase(
      GridConfig(args, args.root + "/cold", store_dir), methods, kGridDatasets, recorder, "cold");
  const RegistryView after_cold = RegistryView::Capture();
  const base::ThreadPoolStats pool_after_cold = base::ThreadPool::Global().stats();
  // Untraced reference between the traced phases: the bit-identity oracle and
  // the denominator of the tracing overhead.
  const UntracedPhase reference =
      RunUntracedPhase(GridConfig(args, args.root + "/reference", store_dir), methods);
  const RegistryView before_warm = RegistryView::Capture();
  const base::ThreadPoolStats pool_before_warm = base::ThreadPool::Global().stats();
  const TracedPhase warm = RunTracedPhase(
      GridConfig(args, args.root + "/warm", store_dir), methods, kGridDatasets, recorder, "warm");
  const RegistryView after = RegistryView::Capture();
  const base::ThreadPoolStats pool_after = base::ThreadPool::Global().stats();

  // The C-FID embedder fit, on a side harness with the grid's options, once
  // per dataset on exactly the reference a cell hands it.
  const bench::BenchConfig side_config = GridConfig(args, args.root + "/side", "");
  core::Harness side(bench::GridHarnessOptions(side_config));
  double embed_fit_s = 0.0;
  int64_t embed_fits = 0;
  int64_t embed_ok = 0;
  const std::vector<core::Preprocessed> side_data = PrepareDatasets(side_config);
  for (const core::Preprocessed& pre : side_data) {
    const int64_t count =
        std::min(side.options().max_eval_samples, pre.train.num_samples());
    const SpanRecorder::Scope span(recorder, "embed.fit", pre.train.name());
    const Stopwatch watch;
    const auto embedder = side.GetEmbedder(pre.train.name(), pre.train.Head(count));
    embed_fit_s += watch.ElapsedSeconds();
    checks.Expect("embed.fit." + pre.train.name(), embedder.ok(),
                  embedder.ok() ? "" : embedder.status().ToString());
    ++embed_fits;
    embed_ok += embedder.ok() ? 1 : 0;
  }

  // Probe: paper_grid runs no stream_eval, so one default-shaped stream_eval
  // replay per cell, restored straight from the store, gives the streaming
  // layer a measured time on this workload.
  store::ArtifactStore artifacts(store_dir);
  double update_s = 0.0, verify_s = 0.0;
  int64_t streams = 0;
  int64_t stream_failures = 0;
  for (const core::Preprocessed& pre : side_data) {
    for (const std::string& method_name : methods) {
      const std::string cell = CellName(method_name, pre.train.name());
      auto method = methods::CreateMethod(method_name);
      Status status = method.status();
      if (status.ok()) {
        const auto snapshot =
            artifacts.Load(KeyFor(*method.value(), pre.train, side.options()));
        status = snapshot.ok() ? method.value()->Restore(snapshot.value())
                               : snapshot.status();
      }
      if (status.ok()) {
        const StreamSpec spec{method_name, pre.train.name(), 2 * kStreamWindow,
                              args.seed, kStreamWindow, kStreamChunk};
        status = ReplayStream(*method.value(), pre.train, spec, &update_s, &verify_s);
      }
      checks.Expect("stream." + cell, status);
      ++streams;
      stream_failures += status.ok() ? 0 : 1;
    }
  }

  const std::vector<Span> spans = recorder.spans();
  checks.Expect("reference.no_failed_cells", reference.result.failures.empty(),
                std::to_string(reference.result.failures.size()) + " failed cells");
  const StatusOr<std::vector<CellScores>> parsed = ParseSummary(reference.summary);
  checks.Expect("reference.summary_parses", parsed.ok(),
                parsed.ok() ? "" : parsed.status().ToString());
  if (parsed.ok()) {
    CheckSummaryCells(checks, "reference", parsed.value(), num_cells, suite_size);
    CheckSameScores(checks, "traced_cold_equals_untraced", parsed.value(), cold.cells);
    CheckSameScores(checks, "traced_warm_equals_untraced", parsed.value(), warm.cells);
  }
  const int64_t cold_fits = CountUnder(spans, "methods.fit", cold.root_span);
  const int64_t warm_fits = CountUnder(spans, "methods.fit", warm.root_span);
  const int64_t warm_restores = CountUnder(spans, "methods.restore", warm.root_span);
  checks.Expect("traced.cold_fit_every_cell", cold_fits == static_cast<int64_t>(num_cells),
                std::to_string(cold_fits) + " fits");
  checks.Expect("traced.warm_zero_fits", warm_fits == 0, std::to_string(warm_fits) + " fits");
  checks.Expect("traced.warm_restored_every_cell",
                warm_restores == static_cast<int64_t>(num_cells),
                std::to_string(warm_restores) + " restores");
  checks.Expect("reference.zero_fits", reference.fits == 0,
                std::to_string(reference.fits) + " fits");

  // Per-layer metrics. Sums run over the two traced phases only.
  MetricMap m;
  m["data.prepare_s"] = recorder.TotalSeconds("data.prepare");
  m["methods.fit_s"] = recorder.TotalSeconds("methods.fit");
  for (const std::string& method : methods::AllMethodNames()) {
    double total = 0.0;
    for (const Span& span : spans) {
      if (span.name == "methods.fit" && span.owner.rfind(method + "/", 0) == 0) {
        total += span.end - span.start;
      }
    }
    m["methods.fit_s." + method] = total;
  }
  auto delta_counter_sum = [&](const std::string& prefix, const std::string& suffix) {
    return static_cast<double>(after.CounterSum(prefix, suffix) -
                               before_warm.CounterSum(prefix, suffix) +
                               after_cold.CounterSum(prefix, suffix) -
                               before.CounterSum(prefix, suffix));
  };
  m["methods.train_steps"] = delta_counter_sum("train.", ".steps");
  m["methods.generate_s"] = recorder.TotalSeconds("methods.generate");
  m["methods.restore_s"] = recorder.TotalSeconds("methods.restore");
  m["store.save_s"] = recorder.TotalSeconds("store.save");
  m["store.load_s"] = recorder.TotalSeconds("store.load");
  m["store.save_mb"] = static_cast<double>(cold.bytes_saved + warm.bytes_saved) / 1e6;
  m["store.load_mb"] = static_cast<double>(cold.bytes_loaded + warm.bytes_loaded) / 1e6;
  const double serving_hits = delta_counter_sum("serving.hits", "");
  const double serving_misses = delta_counter_sum("serving.misses", "");
  m["store.cache_hit_ratio"] = serving_hits + serving_misses > 0
                                   ? serving_hits / (serving_hits + serving_misses)
                                   : 0.0;
  m["embed.fit_s"] = embed_fit_s;
  m["embed.fits"] = static_cast<double>(embed_fits);
  double evaluations = 0.0;
  for (const std::unique_ptr<core::Measure>& measure : core::DefaultMeasureSuite(false)) {
    const std::string timer = "measure." + measure->name() + ".seconds";
    m["measures." + measure->name() + "_s"] =
        after.TimerSeconds(timer) - before_warm.TimerSeconds(timer) +
        after_cold.TimerSeconds(timer) - before.TimerSeconds(timer);
    evaluations += static_cast<double>(after.TimerCount(timer) - before_warm.TimerCount(timer) +
                                       after_cold.TimerCount(timer) - before.TimerCount(timer));
  }
  m["measures.evaluations"] = evaluations;
  AddGridMetrics(recorder, {&cold, &warm}, cold, m);
  m["pool.tasks_executed"] = static_cast<double>(
      pool_after.tasks_executed - pool_before_warm.tasks_executed +
      pool_after_cold.tasks_executed - pool_before.tasks_executed);
  m["pool.idle_waits"] = static_cast<double>(
      pool_after.idle_waits - pool_before_warm.idle_waits +
      pool_after_cold.idle_waits - pool_before.idle_waits);
  m["ag.allocs.steady_state"] = delta_counter_sum("ag.allocs.steady_state", "");
  m["ag.arena.bytes_peak"] = after.Gauge("ag.arena.bytes_peak");
  m["streameval.update_s"] = update_s;
  m["streameval.verify_s"] = verify_s;
  // Traced replay against RunGrid's warm phase. The replay adds the wrappers
  // and spans but skips RunGrid's resume scan, checkpoints and summary.
  m["obs.trace_overhead"] = warm.wall_s / reference.wall_s - 1.0;

  MetricMap report;
  report["grid_cold_s.traced"] = cold.wall_s;
  report["grid_warm_s.traced"] = warm.wall_s;
  report["grid_warm_s.untraced"] = reference.wall_s;
  report["spans"] = static_cast<double>(spans.size());

  if (!args.trace_out.empty()) {
    io::JsonWriter json;
    recorder.WriteJson(json);
    const Status written = io::WriteFileAtomic(args.trace_out, json.str() + "\n");
    checks.Expect("trace.written", written.ok(), written.ToString());
  }
  auto count_phase = [&](const std::string& phase, int64_t attempted, int64_t failed) {
    report["attempted." + phase] = static_cast<double>(attempted);
    report["failed." + phase] = static_cast<double>(failed);
  };
  auto failed_cells = [](const TracedPhase& phase) {
    return static_cast<int64_t>(std::count_if(
        phase.cells.begin(), phase.cells.end(),
        [](const CellScores& cell) { return !cell.error.empty(); }));
  };
  const int64_t cells = static_cast<int64_t>(num_cells);
  const int64_t cold_failed = failed_cells(cold);
  const int64_t reference_failed = static_cast<int64_t>(reference.result.failures.size());
  const int64_t warm_failed = failed_cells(warm);
  count_phase("traced_cold.cell", cells, cold_failed);
  count_phase("reference.cell", cells, reference_failed);
  count_phase("traced_warm.cell", cells, warm_failed);
  count_phase("probe.embed_fit", embed_fits, embed_fits - embed_ok);
  count_phase("probe.stream", streams, stream_failures);
  const int64_t attempted = 3 * cells + embed_fits + streams;
  const int64_t failed = cold_failed + reference_failed + warm_failed +
                         (embed_fits - embed_ok) + stream_failures;
  WriteResult(checks, attempted, failed, m, report);
  return checks.all_ok() ? 0 : 1;
}

}  // namespace

int RunGridSetup(const GridArgs& args) {
  Checks checks;
  const bench::BenchConfig config =
      GridConfig(args, args.root + "/out", args.root + "/store");
  store::ArtifactStore artifacts(config.store_dir);
  core::HarnessOptions options = bench::GridHarnessOptions(config);
  options.store = &artifacts;
  const core::Harness harness(options);
  std::filesystem::create_directories(bench::CheckpointDir(config));
  const auto prepared = base::ParallelMap<core::Preprocessed>(
      static_cast<int64_t>(kGridDatasets.size()), 1, [&](int64_t di) {
        return bench::PrepareDataset(kGridDatasets[static_cast<size_t>(di)], config);
      });
  int64_t failed = 0;
  for (const core::Preprocessed& pre : prepared) {
    const bool ok = !pre.train.empty() && !pre.test.empty();
    checks.Expect("setup." + pre.train.name(), ok, "dataset preparation returned no data");
    failed += ok ? 0 : 1;
  }
  WriteResult(checks, static_cast<int64_t>(prepared.size()), failed, {}, {});
  return checks.all_ok() ? 0 : 1;
}

int RunGridWorkload(const GridArgs& args) {
  std::filesystem::create_directories(args.root);
  const std::vector<std::string>& methods = methods::AllMethodNames();
  return args.trace ? RunTraced(args, methods) : RunUntraced(args, methods);
}

}  // namespace tsg::perfbench
