// Grid supervisor: run after the bench_grid_worker processes exit. Runs the
// grid sweep (bench::SweepGrid) once more, which loads every cell's checkpoint,
// reclaims leases dead workers left behind, computes any cell no worker
// finished (unless --require_complete), and writes the grid summary. The
// summary is byte-identical to a single-process RunGrid of the same config.
//
// Flags: --methods=A,B --datasets=d1,d2 (default: full 10x10 paper grid),
// --require_complete (strict: a missing checkpoint is an error),
// --lease_stale_seconds=<s>, --metrics_out=<path>.

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
  options.label = "grid-merge";
  options.compute_missing =
      !tsg::bench::ConsumeFlag(&argc, argv, "require_complete");
  std::string value;
  tsg::bench::ConsumeFlagValue(&argc, argv, "methods", &methods_csv);
  tsg::bench::ConsumeFlagValue(&argc, argv, "datasets", &datasets_csv);
  if (tsg::bench::ConsumeFlagValue(&argc, argv, "lease_stale_seconds", &value)) {
    options.lease_stale_seconds = std::atof(value.c_str());
  }
  if (!tsg::bench::RequireNoUnknownFlags(
          argc, argv,
          "bench_grid_merge [--methods=A,B] [--datasets=d1,d2] "
          "[--require_complete] [--lease_stale_seconds=<s>] "
          "[--metrics_out=<path>]")) {
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
  const auto merged = tsg::bench::SweepGrid(config, methods.value(),
                                            datasets.value(), options);
  if (!merged.ok()) {
    std::fprintf(stderr, "[grid-merge] merge failed: %s\n",
                 merged.status().ToString().c_str());
    tsg::bench::WriteMetricsSnapshot();
    return 1;
  }
  const size_t failures = tsg::bench::ReportFailures(merged.value());
  std::printf("[grid-merge] %zu rows, %zu failed cells; summary at %s\n",
              merged.value().rows.size(), failures,
              tsg::bench::GridSummaryPath(config).c_str());
  tsg::bench::WriteMetricsSnapshot();
  return 0;
}
