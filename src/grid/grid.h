#ifndef TSG_GRID_GRID_H_
#define TSG_GRID_GRID_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/harness.h"
#include "core/preprocess.h"
#include "data/simulators.h"

// The benchmark grid engine: one methods x datasets sweep shared by the bench
// binaries, the multi-process workers and the tsgd daemon (DESIGN.md §10).
// The names stay in tsg::bench, where the grid has always been addressed from.
namespace tsg::bench {

/// Global knobs shared by every bench binary. Defaults give a laptop-scale run that
/// finishes in minutes; TSGBENCH_SCALE=<x> multiplies the budget (dataset size,
/// training epochs, evaluation repeats) toward paper fidelity.
struct BenchConfig {
  double scale = 1.0;          ///< TSGBENCH_SCALE multiplier.
  uint64_t seed = 42;          ///< TSGBENCH_SEED.
  std::string out_dir = "bench_out";  ///< TSGBENCH_OUT.
  /// TSGBENCH_STORE_DIR: trained-model artifact store directory. When set, grid
  /// cells consult the store before fitting (hit -> restore, zero training) and
  /// publish their fitted model after training, so a second run against the
  /// same store retrains nothing. Empty = store disabled.
  std::string store_dir;

  double dataset_scale() const { return 0.02 * scale; }
  double epoch_scale() const { return 0.2 * scale; }
  int stochastic_repeats() const { return scale >= 2.0 ? 5 : 2; }
  int64_t max_eval_samples() const { return scale >= 2.0 ? 256 : 96; }
};

/// One fitted-and-evaluated grid cell (long format, one row per measure) plus the
/// training time (M8).
struct GridRow {
  std::string method;
  std::string dataset;
  std::string measure;
  double mean = 0.0;
  double stddev = 0.0;
  double fit_seconds = 0.0;
};

/// A (method, dataset) cell that failed recoverably — a diverged fit, non-finite
/// generated data, or a measure error. The grid records it and keeps going.
struct CellError {
  std::string method;
  std::string dataset;
  std::string error;  ///< Status string with method/phase/epoch context.
};

/// The outcome of a grid run: score rows for the cells that succeeded (dataset-
/// major sweep order) plus an error record per failed cell (same order).
struct GridResult {
  std::vector<GridRow> rows;
  std::vector<CellError> failures;
  /// Cells this sweep computed itself; the rest came from checkpoints.
  int64_t computed = 0;
};

/// Preprocesses one simulated dataset under the benchmark defaults.
core::Preprocessed PrepareDataset(data::DatasetId id, const BenchConfig& config);

/// The harness configuration every grid cell is evaluated with (options.store
/// left null — callers attach their own). Exported so the tsgd daemon's single
/// fit/evaluate jobs use exactly the options a grid cell would, which is what
/// makes their results byte-identical.
core::HarnessOptions GridHarnessOptions(const BenchConfig& config);

/// Directory holding one atomically written checkpoint file per completed
/// (method, dataset) cell, keyed by the config — the grid's only cache. Every
/// cell seeds its Rng chain from the config alone, so a checkpoint loaded by any
/// later run (resume after a kill, another worker, another figure binary) is
/// exactly what that run would have computed.
std::string CheckpointDir(const BenchConfig& config);

/// Path of the deterministic JSON summary artifact written after every grid run:
/// per-cell status, scores for completed cells, and error records for failed
/// ones. Wall-clock timings are deliberately excluded (fit times live in the
/// checkpoints) so the file is byte-identical across reruns and kill/resume
/// cycles.
std::string GridSummaryPath(const BenchConfig& config);

/// How one grid sweep coordinates with its peers (DESIGN.md §10).
struct SweepOptions {
  std::string label = "grid";  ///< Log prefix only.
  /// A held lease at least this old is reclaimable even when its owner cannot
  /// be probed (foreign host). Same-host dead owners are reclaimed immediately.
  double lease_stale_seconds = 300.0;
  /// Give up after this long with pending cells but no progress anywhere (a
  /// hung live owner would otherwise block the sweep forever).
  double max_wait_seconds = 600.0;
  /// Cooperative stop hook for long-running hosts (the tsgd daemon's drain and
  /// cancel paths). Polled before each cell, never mid-cell, from several pool
  /// threads at once, so it must be thread-safe: once it returns true the
  /// sweep claims no further cell and returns FailedPrecondition. Finished
  /// cells stay checkpointed, so a later sweep resumes from them. Null = never.
  std::function<bool()> should_stop;
  /// When false, a cell without a checkpoint is a NotFound error instead of
  /// being computed — the strict mode that proves workers covered the grid.
  bool compute_missing = true;
};

/// Runs the (method, dataset) grid to completion against CheckpointDir(config):
///   1. loads every cell that already has a checkpoint;
///   2. prepares, in parallel, the datasets of the cells still pending;
///   3. runs each pending cell as one task on the global thread pool: the task
///      claims the cell's `<checkpoint>.lease` (io::AcquireLease, stealing it
///      when its owner is dead), computes the cell through the store-aware
///      harness, checkpoints it atomically and releases the lease. Cells that
///      live peers hold are retried until they finish, the sweep is stopped,
///      or max_wait_seconds pass without progress;
///   4. writes the JSON summary at GridSummaryPath().
/// Any number of sweeps — threads of one daemon, or processes on shared
/// storage — may run one config at once; each cell is computed once and every
/// sweep returns the same result. A failing cell (diverged fit, NaN loss,
/// measure error) becomes a CellError while the rest of the grid completes.
StatusOr<GridResult> SweepGrid(const BenchConfig& config,
                               const std::vector<std::string>& methods,
                               const std::vector<data::DatasetId>& datasets,
                               const SweepOptions& options);

/// SweepGrid with default options. Aborts when the sweep cannot finish (a
/// lease that a live peer holds past max_wait_seconds, or an unwritable
/// checkpoint directory).
GridResult RunGrid(const BenchConfig& config,
                   const std::vector<std::string>& methods,
                   const std::vector<data::DatasetId>& datasets);

/// Parses a comma-separated dataset-name list ("dlg,stock") against
/// data::DatasetName. An empty string means data::AllDatasets().
StatusOr<std::vector<data::DatasetId>> ParseDatasetList(const std::string& csv);

/// Parses a comma-separated method list against methods::AllMethodNames().
/// An empty string means every registered paper method.
StatusOr<std::vector<std::string>> ParseMethodList(const std::string& csv);

}  // namespace tsg::bench

#endif  // TSG_GRID_GRID_H_
