// Grid worker: one process of an N-worker benchmark grid run. Workers share
// nothing but the checkpoint directory — each runs the grid sweep
// (bench::SweepGrid, DESIGN.md §10), which claims pending (method, dataset)
// cells via atomic lease files, computes the ones it wins through the
// store-aware harness, waits for the ones live peers hold, and writes the grid
// summary once every cell is checkpointed. Launch any number against the same
// TSGBENCH_OUT (and optionally TSGBENCH_STORE_DIR, to share trained models);
// bench_grid_merge then checks strictly that they covered the grid.
//
// Flags: --methods=A,B --datasets=d1,d2 (default: full 10x10 paper grid),
// --worker_id=<label>, --lease_stale_seconds=<s>, --max_wait_seconds=<s>,
// --metrics_out=<path>.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  tsg::bench::ParseBenchFlags(&argc, argv);
  std::string methods_csv;
  std::string datasets_csv;
  tsg::bench::SweepOptions options;
  options.label = "grid-worker";
  std::string value;
  tsg::bench::ConsumeFlagValue(&argc, argv, "methods", &methods_csv);
  tsg::bench::ConsumeFlagValue(&argc, argv, "datasets", &datasets_csv);
  tsg::bench::ConsumeFlagValue(&argc, argv, "worker_id", &options.label);
  if (tsg::bench::ConsumeFlagValue(&argc, argv, "lease_stale_seconds", &value)) {
    options.lease_stale_seconds = std::atof(value.c_str());
  }
  if (tsg::bench::ConsumeFlagValue(&argc, argv, "max_wait_seconds", &value)) {
    options.max_wait_seconds = std::atof(value.c_str());
  }
  if (!tsg::bench::RequireNoUnknownFlags(
          argc, argv,
          "bench_grid_worker [--methods=A,B] [--datasets=d1,d2] "
          "[--worker_id=<label>] [--lease_stale_seconds=<s>] "
          "[--max_wait_seconds=<s>] [--metrics_out=<path>]")) {
    return 2;
  }
  if (argc > 1) {
    std::fprintf(stderr, "unknown argument: %s\n", argv[1]);
    return 2;
  }

  const auto methods = tsg::bench::ParseMethodList(methods_csv);
  const auto datasets = tsg::bench::ParseDatasetList(datasets_csv);
  if (!methods.ok()) {
    std::fprintf(stderr, "%s\n", methods.status().ToString().c_str());
    return 2;
  }
  if (!datasets.ok()) {
    std::fprintf(stderr, "%s\n", datasets.status().ToString().c_str());
    return 2;
  }

  const tsg::bench::BenchConfig config = tsg::bench::LoadConfig();
  const auto grid = tsg::bench::SweepGrid(config, methods.value(),
                                          datasets.value(), options);
  if (!grid.ok()) {
    std::fprintf(stderr, "[%s] sweep failed: %s\n", options.label.c_str(),
                 grid.status().ToString().c_str());
    tsg::bench::WriteMetricsSnapshot();
    return 1;
  }
  std::printf("[%s] computed %lld cells; all cells checkpointed under %s\n",
              options.label.c_str(), static_cast<long long>(grid.value().computed),
              tsg::bench::CheckpointDir(config).c_str());
  tsg::bench::WriteMetricsSnapshot();
  return 0;
}
