// Entry points of the tsg_perfbench tool. Each prints one JSON object (the
// raw measurements and check results of one run) as the last line of stdout;
// perfbench/run.py turns it into the benchmark's result line.

#ifndef TSG_PERFBENCH_WORKLOADS_H_
#define TSG_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/harness.h"
#include "core/method.h"
#include "data/simulators.h"
#include "layers.h"
#include "stats/descriptive.h"

namespace tsg::perfbench {

struct GridArgs {
  uint64_t seed = 1;        ///< Workload seed: the grid's data/model seed.
  std::string root;         ///< Private run directory (created).
  bool trace = false;       ///< Traced run: per-layer numbers instead.
  std::string trace_out;    ///< Traced run: where the span file goes.
};

/// paper_grid's datasets: short/wide DLG and long/narrow StockLong.
inline const std::vector<data::DatasetId> kGridDatasets = {data::DatasetId::kDlg,
                                                           data::DatasetId::kStockLong};

/// paper_grid: all ten paper methods x kGridDatasets, cold then warm.
int RunGridWorkload(const GridArgs& args);

/// paper_grid's set-up, one per process: what RunGrid does before its first
/// cell (harness and store, checkpoint directory, dataset preparation on the
/// pool). perfbench/run.py times whole processes of it, start to exit.
int RunGridSetup(const GridArgs& args);

/// Per-cell scores in grid sweep order (dataset-major), as a grid summary
/// lists them. A non-empty error marks a failed cell.
struct CellScores {
  std::string method;
  std::string dataset;
  std::string error;
  std::vector<std::pair<std::string, stats::MeanStd>> scores;
};

struct TracedPhase {
  int64_t root_span = -1;
  double wall_s = 0.0;
  std::vector<CellScores> cells;
  std::vector<double> cell_seconds;
  int64_t bytes_loaded = 0;
  int64_t bytes_saved = 0;
};

/// RunGrid's two stages (prepare the datasets, then every cell on the global
/// pool, one task per cell as RunGrid schedules them), replayed through
/// bench::PrepareDataset and core::Harness::RunMethod with the delegating
/// method and store wrappers, under a "grid.phase" root span.
TracedPhase RunTracedPhase(const bench::BenchConfig& config,
                           const std::vector<std::string>& methods,
                           const std::vector<data::DatasetId>& datasets,
                           SpanRecorder& recorder, const std::string& phase_name);

/// harness.cell_s_p50 / _max over the cells of `cells_of`, and over `phases`
/// harness.self_s, grid.parallel_efficiency, grid.overhead_s and
/// trace.coverage.
void AddGridMetrics(const SpanRecorder& recorder,
                    const std::vector<const TracedPhase*>& phases,
                    const TracedPhase& cells_of, MetricMap& m);

/// The stream_eval request shape the benchmark replays by default: two
/// windows at the protocol's default window (64) and chunk (16).
constexpr int64_t kStreamWindow = 64;
constexpr int64_t kStreamChunk = 16;

/// One stream_eval request to replay in the serve probe.
struct StreamSpec {
  std::string method;
  std::string dataset;
  int64_t count = 0;
  uint64_t gen_seed = 0;
  int64_t window = 0;
  int64_t chunk = 0;
};

/// The serve workloads' models are every method on these datasets, and every
/// generate request asks for kServeCount series.
inline const std::vector<data::DatasetId> kServeDatasets = {data::DatasetId::kDlg,
                                                            data::DatasetId::kStock};
constexpr int64_t kServeCount = 64;

struct ProbeArgs {
  std::string store;   ///< The daemon's artifact store (read only).
  std::string root;    ///< Private scratch directory (created).
  uint64_t gen_seed = 0;     ///< Seed of the generate replays.
  std::vector<StreamSpec> streams;
};

/// Per-layer probe of a serve workload: replays, in this process and through
/// the layers' public functions, the calls the daemon made for the run's
/// requests, against the daemon's own store, for every served model.
int RunServeProbe(const ProbeArgs& args);

/// The artifact-store key a grid harness with `options` uses for `method`
/// trained on `train`.
core::ModelKey KeyFor(const core::TsgMethod& method, const core::Dataset& train,
                      const core::HarnessOptions& options);

/// Streams spec.count series of a fitted `method` through a StreamEvaluator
/// over `reference`, chunked as the daemon's stream_eval job chunks them
/// (chunk b draws from seed gen_seed + b), then verifies the last window
/// against the batch measures. Adds the Update and Verify time.
Status ReplayStream(const core::TsgMethod& method, const core::Dataset& reference,
                    const StreamSpec& spec, double* update_s, double* verify_s);

}  // namespace tsg::perfbench

#endif  // TSG_PERFBENCH_WORKLOADS_H_
