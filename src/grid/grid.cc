#include "grid/grid.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include "base/check.h"
#include "base/thread_pool.h"
#include "io/atomic_file.h"
#include "io/csv.h"
#include "io/json.h"
#include "io/lease.h"
#include "methods/factory.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/artifact_store.h"

namespace tsg::bench {

namespace {

/// Sleep between sweep rounds while live peers hold the remaining cells.
constexpr double kPollSeconds = 0.05;

/// %.17g: doubles survive a write -> parse -> write cycle bit-for-bit, which the
/// kill/resume byte-identical guarantee depends on.
std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ConfigKey(const BenchConfig& config) {
  std::ostringstream os;
  os << "s" << config.scale << "_r" << config.seed;
  return os.str();
}

/// Keeps method/dataset names filesystem-safe for checkpoint file names.
std::string SanitizeFileName(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
    if (!ok) c = '_';
  }
  return out;
}

/// A checkpoint holds one row per measure for a completed cell, or a single
/// error row for a failed one.
const std::vector<std::string>& CellCsvHeader() {
  static const auto* kHeader = new std::vector<std::string>{
      "status", "method", "dataset", "measure",
      "mean",   "stddev", "fit_seconds", "error"};
  return *kHeader;
}

struct CellOutcome {
  bool ready = false;          ///< Loaded or computed; false while pending.
  bool failed = false;
  std::vector<GridRow> rows;   ///< Populated when !failed.
  CellError error;             ///< Populated when failed.
};

std::string CheckpointPath(const BenchConfig& config, const std::string& method,
                           const std::string& dataset) {
  return CheckpointDir(config) + "/" + SanitizeFileName(method) + "__" +
         SanitizeFileName(dataset) + ".csv";
}

/// Ownership marker for one in-flight cell. Lives next to the checkpoint; the
/// `.lease` suffix keeps it out of the `*.csv` checkpoint glob.
std::string CellLeasePath(const BenchConfig& config, const std::string& method,
                          const std::string& dataset) {
  return CheckpointPath(config, method, dataset) + ".lease";
}

Status WriteCellCheckpoint(const BenchConfig& config, const CellOutcome& cell) {
  std::vector<std::vector<std::string>> lines = {CellCsvHeader()};
  if (cell.failed) {
    lines.push_back({"error", cell.error.method, cell.error.dataset, "", "", "",
                     "", cell.error.error});
  }
  for (const GridRow& row : cell.rows) {
    lines.push_back({"ok", row.method, row.dataset, row.measure,
                     FormatDouble(row.mean), FormatDouble(row.stddev),
                     FormatDouble(row.fit_seconds), ""});
  }
  const std::string& method =
      cell.failed ? cell.error.method : cell.rows.front().method;
  const std::string& dataset =
      cell.failed ? cell.error.dataset : cell.rows.front().dataset;
  return io::WriteCsvRows(CheckpointPath(config, method, dataset), lines);
}

/// Loads a completed cell's checkpoint; returns false when it is absent or
/// invalid in any way — a foreign or partial row, a number that does not parse
/// in full — so the cell is recomputed rather than trusted.
bool LoadCellCheckpoint(const BenchConfig& config, const std::string& method,
                        const std::string& dataset, CellOutcome* cell) {
  const std::string path = CheckpointPath(config, method, dataset);
  if (!std::filesystem::exists(path)) return false;
  auto records = io::ReadCsvRows(path);
  if (!records.ok() || records.value().size() < 2) return false;
  const std::vector<std::vector<std::string>>& lines = records.value();
  if (lines[0] != CellCsvHeader()) return false;
  CellOutcome loaded;
  for (size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string>& cells = lines[i];
    if (cells.size() != CellCsvHeader().size() || cells[1] != method ||
        cells[2] != dataset) {
      return false;
    }
    if (cells[0] == "ok") {
      GridRow row{method, dataset, cells[3]};
      if (!io::ParseDoubleCell(cells[4], &row.mean) ||
          !io::ParseDoubleCell(cells[5], &row.stddev) ||
          !io::ParseDoubleCell(cells[6], &row.fit_seconds)) {
        return false;
      }
      loaded.rows.push_back(std::move(row));
    } else if (cells[0] == "error" && lines.size() == 2) {
      // A failed cell is exactly one error row.
      loaded.failed = true;
      loaded.error = {method, dataset, cells[7]};
    } else {
      return false;
    }
  }
  loaded.ready = true;
  *cell = std::move(loaded);
  return true;
}

/// Deterministic JSON artifact: per-cell status and scores in sweep order, no
/// wall-clock values — identical bytes for a clean run and a kill/resume run.
void WriteGridSummary(const BenchConfig& config,
                      const std::vector<std::string>& methods,
                      const std::vector<data::DatasetId>& datasets,
                      const std::vector<CellOutcome>& outcomes) {
  io::JsonWriter json;
  json.BeginObject();
  json.Key("scale").Number(config.scale);
  json.Key("seed").Int(static_cast<int64_t>(config.seed));
  json.Key("methods").BeginArray();
  for (const std::string& m : methods) json.String(m);
  json.EndArray();
  json.Key("datasets").BeginArray();
  for (data::DatasetId id : datasets) json.String(data::DatasetName(id));
  json.EndArray();
  json.Key("cells").BeginArray();
  for (const CellOutcome& cell : outcomes) {
    json.BeginObject();
    if (cell.failed) {
      json.Key("method").String(cell.error.method);
      json.Key("dataset").String(cell.error.dataset);
      json.Key("status").String("error");
      json.Key("error").String(cell.error.error);
    } else {
      json.Key("method").String(cell.rows.front().method);
      json.Key("dataset").String(cell.rows.front().dataset);
      json.Key("status").String("ok");
      json.Key("scores").BeginObject();
      for (const GridRow& row : cell.rows) {
        json.Key(row.measure).BeginObject();
        json.Key("mean").Number(row.mean);
        json.Key("stddev").Number(row.stddev);
        json.EndObject();
      }
      json.EndObject();
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  const Status s = io::WriteFileAtomic(GridSummaryPath(config), json.str() + "\n");
  if (!s.ok()) {
    obs::MetricRegistry::Global().GetCounter("grid.summary_write_failures").Add();
    std::fprintf(stderr, "summary write failed: %s\n", s.ToString().c_str());
  }
}

/// Fits and evaluates one (method, dataset) cell. Deterministic in
/// (config, method, dataset): the cell seeds its Rng chain from the harness
/// options alone, so any process computing it produces identical rows.
CellOutcome ComputeCell(core::Harness& harness, const std::string& method_name,
                        const core::Preprocessed& pre) {
  CellOutcome outcome;
  outcome.ready = true;
  const obs::ScopedTimer cell_span("grid.cell");
  obs::MetricRegistry::Global().GetCounter("grid.cells.computed").Add();
  auto method = methods::CreateMethod(method_name);
  if (!method.ok()) {
    outcome.failed = true;
    outcome.error = {method_name, pre.train.name(), method.status().ToString()};
    return outcome;
  }
  auto result = harness.RunMethod(*method.value(), pre.train, pre.test);
  if (!result.ok()) {
    outcome.failed = true;
    outcome.error = {method_name, pre.train.name(), result.status().ToString()};
    std::fprintf(stderr, "[grid]   %-12s / %-10s FAILED: %s\n",
                 method_name.c_str(), pre.train.name().c_str(),
                 result.status().ToString().c_str());
    return outcome;
  }
  outcome.rows.reserve(result.value().scores.size());
  for (const auto& [measure, summary] : result.value().scores) {
    outcome.rows.push_back({method_name, pre.train.name(), measure, summary.mean,
                            summary.std, result.value().fit_seconds});
  }
  std::fprintf(stderr, "[grid]   %-12s / %-10s fit %.1fs\n", method_name.c_str(),
               pre.train.name().c_str(), result.value().fit_seconds);
  return outcome;
}

/// Splits "a,b,c" into {"a","b","c"}; empty segments are dropped.
std::vector<std::string> SplitCsvList(const std::string& csv) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(csv);
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

core::Preprocessed PrepareDataset(data::DatasetId id, const BenchConfig& config) {
  data::SimulatorOptions sim;
  const data::PaperStats paper = data::GetPaperStats(id);
  // Long-sequence datasets cost ~l per training step; cap their window count so the
  // default grid finishes in minutes while the R ordering across datasets survives.
  const double window_cap = (paper.l >= 100 ? 176.0 : 352.0) * config.scale;
  sim.scale = std::min(config.dataset_scale(),
                       window_cap / static_cast<double>(paper.r));
  sim.seed = config.seed;
  const data::RawSeries raw = data::Simulate(id, sim);
  core::PreprocessOptions pre;
  pre.shuffle_seed = config.seed ^ 0x5481;
  return core::Preprocess(raw, pre);
}

core::HarnessOptions GridHarnessOptions(const BenchConfig& config) {
  core::HarnessOptions options;
  options.fit.epoch_scale = config.epoch_scale();
  options.fit.seed = config.seed;
  options.stochastic_repeats = config.stochastic_repeats();
  options.max_eval_samples = config.max_eval_samples();
  options.embedder.epochs = std::max(4, static_cast<int>(10 * config.scale));
  options.seed = config.seed;
  return options;
}

std::string CheckpointDir(const BenchConfig& config) {
  return config.out_dir + "/grid_ckpt_" + ConfigKey(config);
}

std::string GridSummaryPath(const BenchConfig& config) {
  return config.out_dir + "/grid_summary_" + ConfigKey(config) + ".json";
}

StatusOr<GridResult> SweepGrid(const BenchConfig& config,
                               const std::vector<std::string>& methods,
                               const std::vector<data::DatasetId>& datasets,
                               const SweepOptions& options) {
  obs::MetricRegistry& metrics = obs::MetricRegistry::Global();
  const obs::ScopedTimer grid_span("grid.run");
  std::filesystem::create_directories(CheckpointDir(config));
  const std::string& token = io::LeaseOwnerToken();
  const char* label = options.label.c_str();

  // Cell c is (methods[c % M], datasets[c / M]): the dataset-major order that
  // rows, failures and the summary all follow.
  const size_t num_methods = methods.size();
  const size_t num_cells = datasets.size() * num_methods;
  const auto method_of = [&](size_t c) -> const std::string& {
    return methods[c % num_methods];
  };
  const auto dataset_of = [&](size_t c) {
    return data::DatasetName(datasets[c / num_methods]);
  };
  std::vector<CellOutcome> outcomes(num_cells);

  // 1. Resume: every checkpointed cell is final. Skipping it is sound because
  // each cell seeds its Rng chain from the config alone and the shared embedder
  // fit is deterministic — no cell depends on which process computed another.
  std::vector<size_t> pending;
  for (size_t c = 0; c < num_cells; ++c) {
    if (!LoadCellCheckpoint(config, method_of(c), dataset_of(c), &outcomes[c])) {
      pending.push_back(c);
      continue;
    }
    // A lease beside a checkpoint is orphaned when its owner died between
    // checkpointing and releasing.
    const std::string lease = CellLeasePath(config, method_of(c), dataset_of(c));
    if (io::ProbeLease(lease, options.lease_stale_seconds) == io::LeaseState::kDead) {
      (void)io::BreakLease(lease, token);
    }
  }
  const int64_t resumed = static_cast<int64_t>(num_cells - pending.size());
  if (resumed > 0) {
    std::fprintf(stderr, "[%s] resumed %lld/%zu cells from %s\n", label,
                 static_cast<long long>(resumed), num_cells,
                 CheckpointDir(config).c_str());
  }
  metrics.GetCounter("grid.cells.total").Add(static_cast<int64_t>(num_cells));
  metrics.GetCounter("grid.cells.resumed").Add(resumed);
  if (!options.compute_missing && !pending.empty()) {
    return Status::NotFound("no checkpoint for cell " + method_of(pending[0]) +
                            " / " + dataset_of(pending[0]) + " in " +
                            CheckpointDir(config));
  }

  // 2. Simulate + preprocess each dataset that still has pending cells
  // (independent and deterministic).
  std::vector<bool> dataset_needed(datasets.size(), false);
  for (const size_t c : pending) dataset_needed[c / num_methods] = true;
  const auto prepared = base::ParallelMap<core::Preprocessed>(
      static_cast<int64_t>(datasets.size()), 1, [&](int64_t di) {
        if (!dataset_needed[static_cast<size_t>(di)]) return core::Preprocessed();
        const obs::ScopedTimer prepare_span("grid.prepare_dataset");
        core::Preprocessed pre =
            PrepareDataset(datasets[static_cast<size_t>(di)], config);
        std::fprintf(stderr, "[grid] dataset %s: R_train=%lld l=%lld N=%lld\n",
                     pre.train.name().c_str(),
                     static_cast<long long>(pre.train.num_samples()),
                     static_cast<long long>(pre.train.seq_len()),
                     static_cast<long long>(pre.train.num_features()));
        return pre;
      });

  // With a store configured, every cell checks for a prior fitted model before
  // training and publishes its model after. ArtifactStore is stateless over
  // atomic file operations, so concurrent cells and processes can share it.
  core::HarnessOptions harness_options = GridHarnessOptions(config);
  std::unique_ptr<store::ArtifactStore> model_store;
  if (!config.store_dir.empty()) {
    model_store = std::make_unique<store::ArtifactStore>(config.store_dir);
    harness_options.store = model_store.get();
    std::fprintf(stderr, "[grid] artifact store at %s\n", config.store_dir.c_str());
  }
  core::Harness harness(harness_options);

  // 3. One pool task per pending cell. Each builds its own method instance, so
  // cells share no mutable state (the harness serializes its embedder cache
  // internally). A failed cell becomes an error record, and every finished cell
  // checkpoints atomically before its lease is released, so a kill at any point
  // loses at most the in-flight cells. Returns OK with the outcome still not
  // ready when a live peer holds the cell.
  std::atomic<bool> stopped{false};
  std::atomic<int64_t> computed{0};
  const auto run_cell = [&](size_t c) -> Status {
    if (stopped.load() || (options.should_stop && options.should_stop())) {
      stopped.store(true);
      return Status::Ok();
    }
    const std::string& method = method_of(c);
    const std::string dataset = dataset_of(c);
    CellOutcome& outcome = outcomes[c];
    // A peer may have finished the cell since the resume pass.
    if (LoadCellCheckpoint(config, method, dataset, &outcome)) {
      metrics.GetCounter("grid.cells.resumed").Add();
      return Status::Ok();
    }
    const std::string lease = CellLeasePath(config, method, dataset);
    TSG_ASSIGN_OR_RETURN(bool owned, io::AcquireLease(lease, token));
    bool reclaimed = false;
    if (!owned) {
      // Owners release only after checkpointing, so a held lease without a
      // checkpoint is a live computation (wait) or a casualty (steal).
      if (io::ProbeLease(lease, options.lease_stale_seconds) !=
          io::LeaseState::kDead) {
        metrics.GetCounter("grid.lease_conflicts").Add();
        return Status::Ok();
      }
      TSG_ASSIGN_OR_RETURN(const bool broke, io::BreakLease(lease, token));
      if (!broke) return Status::Ok();  // A faster peer stole it first.
      metrics.GetCounter("grid.leases.stolen").Add();
      TSG_ASSIGN_OR_RETURN(owned, io::AcquireLease(lease, token));
      if (!owned) return Status::Ok();
      reclaimed = true;
    }
    // The previous owner may have died after checkpointing, before releasing.
    if (LoadCellCheckpoint(config, method, dataset, &outcome)) {
      (void)io::ReleaseLease(lease, token);
      metrics.GetCounter("grid.cells.resumed").Add();
      return Status::Ok();
    }
    if (reclaimed) {
      metrics.GetCounter("grid.cells.reclaimed").Add();
      std::fprintf(stderr, "[%s] reclaimed dead cell %s / %s\n", label,
                   method.c_str(), dataset.c_str());
    }
    outcome = ComputeCell(harness, method, prepared[c / num_methods]);
    computed.fetch_add(1);
    const Status ckpt = WriteCellCheckpoint(config, outcome);
    if (!ckpt.ok()) {
      metrics.GetCounter("grid.checkpoint_write_failures").Add();
      std::fprintf(stderr, "checkpoint write failed: %s\n", ckpt.ToString().c_str());
    }
    const Status released = io::ReleaseLease(lease, token);
    if (!released.ok()) {
      // Stolen mid-compute after being (wrongly) declared dead. Harmless: the
      // checkpoint is deterministic, so whatever the thief writes is
      // byte-identical. Count it and move on.
      metrics.GetCounter("grid.lease_release_failures").Add();
      std::fprintf(stderr, "[%s] lease release: %s\n", label,
                   released.ToString().c_str());
    }
    return Status::Ok();
  };

  auto last_progress = std::chrono::steady_clock::now();
  while (!pending.empty()) {
    const std::vector<Status> statuses = base::ParallelMap<Status>(
        static_cast<int64_t>(pending.size()), 1,
        [&](int64_t i) { return run_cell(pending[static_cast<size_t>(i)]); });
    std::vector<size_t> held;
    for (size_t i = 0; i < pending.size(); ++i) {
      TSG_RETURN_IF_ERROR(statuses[i]);
      if (!outcomes[pending[i]].ready) held.push_back(pending[i]);
    }
    if (stopped.load()) {
      metrics.GetCounter("grid.stopped").Add();
      std::fprintf(stderr, "[%s] stop requested after %lld cells\n", label,
                   static_cast<long long>(computed.load()));
      return Status::FailedPrecondition(options.label +
                                        ": stopped before grid completion");
    }
    const auto now = std::chrono::steady_clock::now();
    if (held.size() < pending.size()) last_progress = now;
    pending = std::move(held);
    if (pending.empty()) break;
    const double waited =
        std::chrono::duration<double>(now - last_progress).count();
    if (waited > options.max_wait_seconds) {
      return Status::FailedPrecondition(
          options.label + ": no progress for " + std::to_string(waited) +
          "s waiting on cells held by live workers");
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(kPollSeconds));
  }

  // 4. Assemble the rows in sweep order and write the summary.
  GridResult result;
  result.computed = computed.load();
  for (const CellOutcome& outcome : outcomes) {
    if (outcome.failed) {
      metrics.GetCounter("grid.cells.failed").Add();
      result.failures.push_back(outcome.error);
    } else {
      metrics.GetCounter("grid.cells.ok").Add();
      result.rows.insert(result.rows.end(), outcome.rows.begin(),
                         outcome.rows.end());
    }
  }
  WriteGridSummary(config, methods, datasets, outcomes);
  std::fprintf(stderr, "[%s] computed %lld/%zu cells\n", label,
               static_cast<long long>(result.computed), num_cells);
  return result;
}

GridResult RunGrid(const BenchConfig& config,
                   const std::vector<std::string>& methods,
                   const std::vector<data::DatasetId>& datasets) {
  StatusOr<GridResult> result = SweepGrid(config, methods, datasets, SweepOptions());
  TSG_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

StatusOr<std::vector<data::DatasetId>> ParseDatasetList(const std::string& csv) {
  if (csv.empty()) return data::AllDatasets();
  std::vector<data::DatasetId> out;
  for (const std::string& name : SplitCsvList(csv)) {
    bool found = false;
    for (const data::DatasetId id : data::AllDatasets()) {
      if (name == data::DatasetName(id)) {
        out.push_back(id);
        found = true;
        break;
      }
    }
    if (!found) return Status::InvalidArgument("unknown dataset: " + name);
  }
  if (out.empty()) return Status::InvalidArgument("empty dataset list: " + csv);
  return out;
}

StatusOr<std::vector<std::string>> ParseMethodList(const std::string& csv) {
  if (csv.empty()) return methods::AllMethodNames();
  const std::vector<std::string>& known = methods::AllMethodNames();
  std::vector<std::string> out;
  for (const std::string& name : SplitCsvList(csv)) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      return Status::InvalidArgument("unknown method: " + name);
    }
    out.push_back(name);
  }
  if (out.empty()) return Status::InvalidArgument("empty method list: " + csv);
  return out;
}

}  // namespace tsg::bench
