#ifndef TSG_STREAMEVAL_STREAM_EVALUATOR_H_
#define TSG_STREAMEVAL_STREAM_EVALUATOR_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/dataset.h"
#include "streameval/drift.h"
#include "streameval/feature_gaussian.h"

namespace tsg::streameval {

/// One generated series inside the sliding evaluation window, tagged with its
/// zero-based position in the overall stream. The position drives reference
/// pairing for the index-paired distance measures: stream item p is paired with
/// reference sample p mod R, so an endless stream cycles through the reference
/// set instead of running off its end.
struct WindowItem {
  Matrix series;     ///< (l x N) generated window sample.
  int64_t position;  ///< Zero-based position in the stream.
};

/// The sliding window, oldest first.
using Window = std::deque<WindowItem>;

/// Configuration for a StreamEvaluator (DESIGN.md §12).
struct StreamEvalOptions {
  /// Series per evaluation window. Snapshots are taken at every multiple of
  /// `window` series (tumbling cadence); the sliding state always holds the
  /// most recent `window` series.
  int64_t window = 64;
  /// Metric namespace, e.g. "stream.alpha". Per-measure gauges land at
  /// "<prefix>.<measure>" / "<prefix>.<measure>.delta"; counters at
  /// "<prefix>.windows", "<prefix>.series", "<prefix>.alarms",
  /// "<prefix>.<measure>.alarms", "<prefix>.errors". Empty disables export.
  std::string metric_prefix;
  DriftOptions drift;
};

/// Windowed evaluation of a generated-series stream against a fixed reference
/// set (DESIGN.md §12, docs/MEASURES.md).
///
/// Feed batches of generated series with Update(); every `window` series the
/// evaluator scores the window, feeds the values to its DriftDetector, and
/// (when a metric prefix is set) publishes the per-tenant "stream.*"
/// gauges/counters the daemon's METRICS verb exposes.
///
/// A window is scored by the batch core::Measures themselves, with the window's
/// series as the generated set. ED and DTW pair window item p with reference
/// sample p mod R, so their real set is the reference Select()ed at those
/// indices; MDD, ACD, SD, KD and MMD compare against the whole reference. A
/// snapshot is therefore exactly the batch evaluation of the window, by
/// construction. The one value with no batch counterpart is FGD, which
/// accumulates over the whole stream (see FeatureGaussian).
class StreamEvaluator {
 public:
  /// Validates options and copies `reference` (the evaluator owns its
  /// reference so a long-lived stream never dangles).
  static StatusOr<std::unique_ptr<StreamEvaluator>> Create(
      const core::Dataset& reference, StreamEvalOptions options);

  /// Folds a batch of generated series in, slicing internally so every window
  /// boundary is honored even when a batch spans several windows.
  Status Update(const std::vector<Matrix>& batch);

  /// Measure values of the current (possibly partial) window, without touching
  /// drift state or metrics. Measures that return a non-OK status (e.g. MMD on
  /// a 1-series window) are omitted.
  StatusOr<std::map<std::string, double>> SnapshotNow() const;

  /// Recomputes the batch measures from WindowDataset() and WindowPositions()
  /// and checks SnapshotNow() against them byte for byte; returns Internal on
  /// any mismatch. The current window must be non-empty.
  Status VerifyExactAgainstBatch() const;

  /// The window's series as a Dataset (oldest first) and their stream
  /// positions — the generated side of the batch counterpart.
  core::Dataset WindowDataset() const;
  std::vector<int64_t> WindowPositions() const;

  int64_t series_seen() const { return series_seen_; }
  int64_t windows_completed() const { return windows_completed_; }
  int64_t alarms_total() const { return drift_.alarms_total(); }
  int64_t window_size() const { return static_cast<int64_t>(window_.size()); }
  const core::Dataset& reference() const { return reference_; }

  /// Measure values / raw drift deltas of the last completed window (empty
  /// before the first boundary).
  const std::map<std::string, double>& last_snapshot() const {
    return last_snapshot_;
  }
  const std::map<std::string, double>& last_deltas() const {
    return last_deltas_;
  }

 private:
  StreamEvaluator(const core::Dataset& reference, StreamEvalOptions options);

  /// Scores the current window: each windowed measure through its batch
  /// Evaluate on the window's two contexts, plus FGD. Values of measures that
  /// fail are left out; *errors (when given) counts them.
  std::map<std::string, double> Score(int64_t* errors) const;

  /// Snapshot at a window boundary: record values, feed drift, export metrics.
  void TakeSnapshot();

  core::Dataset reference_;
  StreamEvalOptions options_;
  FeatureGaussian fgd_;
  Window window_;
  DriftDetector drift_;
  int64_t series_seen_ = 0;
  int64_t windows_completed_ = 0;
  int64_t exported_alarms_ = 0;  ///< Alarms already flushed to the counter.
  std::map<std::string, double> last_snapshot_;
  std::map<std::string, double> last_deltas_;
};

}  // namespace tsg::streameval

#endif  // TSG_STREAMEVAL_STREAM_EVALUATOR_H_
