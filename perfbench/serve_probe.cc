// Per-layer probe for the serve workloads. The daemon runs its layers out of
// this process, so the traced run replays the layer calls behind the run's
// requests here, through the layers' public functions and against the
// daemon's own artifact store: dataset preparation, the C-FID embedder fit on
// a side harness, artifact load + restore + batched generation for every
// served model, an artifact save, and the StreamEvaluator Update/Verify calls
// on exactly the chunks each replayed stream_eval request streams.
//
// Two parts measure layers the workload's own traffic does not run, so that
// no per-layer time reads a constant 0: on serve_generate, which sends no
// stream_eval, one default-shaped stream per served model; and on both serve
// workloads, a warm grid over the served models for the harness, grid and
// measure layers. perfbench/run.py marks those figures as probes.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/stopwatch.h"
#include "bench_util.h"
#include "core/harness.h"
#include "core/measures.h"
#include "layers.h"
#include "methods/factory.h"
#include "store/artifact_store.h"
#include "streameval/stream_evaluator.h"
#include "workloads.h"

namespace tsg::perfbench {

int RunServeProbe(const ProbeArgs& args) {
  std::filesystem::create_directories(args.root);
  const std::vector<std::string>& method_names = methods::AllMethodNames();
  // The daemon's configuration: tsgd reads the same BenchConfig defaults.
  bench::BenchConfig config;
  config.out_dir = args.root;
  config.store_dir = args.store;
  const core::HarnessOptions options = bench::GridHarnessOptions(config);
  SpanRecorder recorder;
  Checks probe;

  std::map<std::string, core::Preprocessed> datasets;
  for (const data::DatasetId id : kServeDatasets) {
    const std::string name = data::DatasetName(id);
    const SpanRecorder::Scope span(recorder, "data.prepare", name);
    datasets.emplace(name, bench::PrepareDataset(id, config));
  }

  core::Harness side(options);
  int64_t embed_fits = 0;
  for (const auto& [name, pre] : datasets) {
    const int64_t count = std::min(options.max_eval_samples, pre.train.num_samples());
    const SpanRecorder::Scope span(recorder, "embed.fit", name);
    probe.Expect("embed." + name, side.GetEmbedder(name, pre.train.Head(count)).status());
    ++embed_fits;
  }

  store::ArtifactStore daemon_store(args.store);
  TracedStore served(daemon_store, recorder);
  store::ArtifactStore copy_store(args.root + "/store_copy");
  TracedStore copies(copy_store, recorder);
  std::map<std::string, std::unique_ptr<TracedMethod>> restored;
  for (const auto& [dataset, pre] : datasets) {
    for (const std::string& method_name : method_names) {
      const std::string cell = method_name + "/" + dataset;
      auto created = methods::CreateMethod(method_name);
      probe.Expect("create." + cell, created.status());
      if (!created.ok()) continue;
      auto method =
          std::make_unique<TracedMethod>(std::move(created).value(), recorder, cell);
      const core::ModelKey key = KeyFor(*method, pre.train, options);
      const StatusOr<core::MethodSnapshot> snapshot = served.Load(key);
      probe.Expect("load." + cell, snapshot.status());
      if (!snapshot.ok()) continue;
      const Status restore = method->Restore(snapshot.value());
      probe.Expect("restore." + cell, restore);
      if (!restore.ok()) continue;
      const auto blocks = method->GenerateBatch({core::GenRequest{kServeCount, args.gen_seed}});
      probe.Expect("generate." + cell,
                   blocks.size() == 1 &&
                       static_cast<int64_t>(blocks[0].size()) == kServeCount,
                   "wrong series count");
      probe.Expect("save." + cell, copies.Save(key, snapshot.value()));
      restored.emplace(cell, std::move(method));
    }
  }

  // Without stream_eval requests to replay (serve_generate), stream every
  // served model once, as a stream_eval request with default shape would.
  std::vector<StreamSpec> streams = args.streams;
  if (streams.empty()) {
    for (const auto& [cell, method] : restored) {
      const size_t slash = cell.find('/');
      streams.push_back({cell.substr(0, slash), cell.substr(slash + 1),
                         2 * kStreamWindow, args.gen_seed, kStreamWindow, kStreamChunk});
    }
  }
  double update_s = 0.0;
  double verify_s = 0.0;
  for (const StreamSpec& spec : streams) {
    const std::string cell = spec.method + "/" + spec.dataset;
    auto method = restored.find(cell);
    auto pre = datasets.find(spec.dataset);
    if (method == restored.end() || pre == datasets.end()) {
      probe.Expect("stream." + cell, false, "cell not restored");
      continue;
    }
    probe.Expect("stream." + cell,
                 ReplayStream(*method->second, pre->second.train, spec, &update_s, &verify_s));
  }

  // The harness and grid layers on the served models: a warm grid over the
  // daemon's store, with its own spans so the replays above stay separate.
  SpanRecorder grid_recorder;
  const RegistryView before_grid = RegistryView::Capture();
  bench::BenchConfig grid_config = config;
  grid_config.out_dir = args.root + "/grid";
  const TracedPhase grid =
      RunTracedPhase(grid_config, method_names, kServeDatasets, grid_recorder, "probe");
  const RegistryView after_grid = RegistryView::Capture();
  for (const CellScores& cell : grid.cells) {
    probe.Expect("grid." + cell.method + "/" + cell.dataset, cell.error.empty(), cell.error);
  }

  MetricMap m;
  m["data.prepare_s"] = recorder.TotalSeconds("data.prepare");
  m["embed.fit_s"] = recorder.TotalSeconds("embed.fit");
  m["embed.fits"] = static_cast<double>(embed_fits);
  m["methods.restore_s"] = recorder.TotalSeconds("methods.restore");
  m["methods.generate_s"] = recorder.TotalSeconds("methods.generate");
  m["store.load_s"] = recorder.TotalSeconds("store.load");
  m["store.save_s"] = recorder.TotalSeconds("store.save");
  m["store.load_mb"] = static_cast<double>(served.bytes_loaded()) / 1e6;
  m["store.save_mb"] = static_cast<double>(copies.bytes_saved()) / 1e6;
  m["streameval.update_s"] = update_s;
  m["streameval.verify_s"] = verify_s;
  AddGridMetrics(grid_recorder, {&grid}, grid, m);
  double evaluations = 0.0;
  for (const std::unique_ptr<core::Measure>& measure : core::DefaultMeasureSuite(false)) {
    const std::string timer = "measure." + measure->name() + ".seconds";
    m["measures." + measure->name() + "_s"] =
        after_grid.TimerSeconds(timer) - before_grid.TimerSeconds(timer);
    evaluations += static_cast<double>(after_grid.TimerCount(timer) -
                                       before_grid.TimerCount(timer));
  }
  m["measures.evaluations"] = evaluations;

  WriteResult(probe, probe.count(), probe.failures(), m, {});
  return probe.all_ok() ? 0 : 1;
}

core::ModelKey KeyFor(const core::TsgMethod& method, const core::Dataset& train,
                      const core::HarnessOptions& options) {
  core::ModelKey key;
  key.method = method.name();
  key.hyper_digest = method.HyperparameterDigest();
  key.dataset_fingerprint = train.Fingerprint();
  key.seed = options.fit.seed;
  key.epoch_scale = options.fit.epoch_scale;
  key.batch_size = options.fit.batch_size;
  return key;
}

Status ReplayStream(const core::TsgMethod& method, const core::Dataset& reference,
                    const StreamSpec& spec, double* update_s, double* verify_s) {
  streameval::StreamEvalOptions options;
  options.window = spec.window;
  TSG_ASSIGN_OR_RETURN(const std::unique_ptr<streameval::StreamEvaluator> eval,
                       streameval::StreamEvaluator::Create(reference, options));
  int64_t remaining = spec.count;
  for (uint64_t b = 0; remaining > 0; ++b) {
    const int64_t take = std::min(spec.chunk, remaining);
    const auto blocks = method.GenerateBatch({core::GenRequest{take, spec.gen_seed + b}});
    const Stopwatch watch;
    for (const auto& block : blocks) TSG_RETURN_IF_ERROR(eval->Update(block));
    *update_s += watch.ElapsedSeconds();
    remaining -= take;
  }
  if (eval->window_size() == 0) return Status::Ok();
  const Stopwatch watch;
  const Status exact = eval->VerifyExactAgainstBatch();
  *verify_s += watch.ElapsedSeconds();
  return exact;
}

}  // namespace tsg::perfbench
