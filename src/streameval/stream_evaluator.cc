#include "streameval/stream_evaluator.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/measures.h"
#include "obs/metrics.h"

namespace tsg::streameval {
namespace {

/// Bitwise double equality — the comparison the exactness attestation is
/// stated in. Treats identical NaN patterns as equal, unlike operator==.
bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// A batch measure a window is scored with; `paired` measures compare window
/// item p with reference sample p mod R, the others with the whole reference.
struct WindowMeasure {
  std::unique_ptr<core::Measure> measure;
  bool paired;
};

const std::vector<WindowMeasure>& WindowMeasures() {
  static const std::vector<WindowMeasure>* const kMeasures = [] {
    auto* out = new std::vector<WindowMeasure>();
    out->push_back({std::make_unique<core::EuclideanDistanceMeasure>(), true});
    out->push_back({std::make_unique<core::DtwDistanceMeasure>(), true});
    out->push_back(
        {std::make_unique<core::MarginalDistributionDifference>(), false});
    out->push_back({std::make_unique<core::AutocorrelationDifference>(), false});
    out->push_back({std::make_unique<core::SkewnessDifference>(), false});
    out->push_back({std::make_unique<core::KurtosisDifference>(), false});
    out->push_back({std::make_unique<core::MmdMeasure>(), false});
    return out;
  }();
  return *kMeasures;
}

/// Runs every WindowMeasure on `window` (the generated set, whose series sit at
/// stream `positions`) against `reference`. Failed measures are left out and
/// counted in *errors when it is given.
std::map<std::string, double> ScoreWindow(const core::Dataset& reference,
                                          const core::Dataset& window,
                                          const std::vector<int64_t>& positions,
                                          int64_t* errors) {
  std::vector<int64_t> pair_idx;
  pair_idx.reserve(positions.size());
  for (const int64_t p : positions) {
    pair_idx.push_back(p % reference.num_samples());
  }
  const core::Dataset paired_ref = reference.Select(pair_idx);
  core::MeasureContext paired_ctx;
  paired_ctx.real = &paired_ref;
  paired_ctx.generated = &window;
  core::MeasureContext full_ctx;
  full_ctx.real = &reference;
  full_ctx.generated = &window;

  std::map<std::string, double> out;
  for (const WindowMeasure& m : WindowMeasures()) {
    const StatusOr<double> value =
        m.measure->Evaluate(m.paired ? paired_ctx : full_ctx);
    if (value.ok()) {
      out[m.measure->name()] = value.value();
    } else if (errors != nullptr) {
      ++*errors;
    }
  }
  return out;
}

}  // namespace

StreamEvaluator::StreamEvaluator(const core::Dataset& reference,
                                 StreamEvalOptions options)
    : reference_(reference),
      options_(std::move(options)),
      fgd_(reference_),
      drift_(options_.drift) {}

StatusOr<std::unique_ptr<StreamEvaluator>> StreamEvaluator::Create(
    const core::Dataset& reference, StreamEvalOptions options) {
  if (reference.empty()) {
    return Status::InvalidArgument("stream evaluator needs a non-empty reference");
  }
  if (options.window <= 0) {
    return Status::InvalidArgument("stream window must be positive, got " +
                                   std::to_string(options.window));
  }
  return std::unique_ptr<StreamEvaluator>(
      new StreamEvaluator(reference, std::move(options)));
}

Status StreamEvaluator::Update(const std::vector<Matrix>& batch) {
  const int64_t l = reference_.seq_len();
  const int64_t n = reference_.num_features();
  for (const Matrix& series : batch) {
    if (series.rows() != l || series.cols() != n) {
      return Status::InvalidArgument(
          "stream series shape " + std::to_string(series.rows()) + "x" +
          std::to_string(series.cols()) + " does not match reference " +
          std::to_string(l) + "x" + std::to_string(n));
    }
  }

  size_t next = 0;
  while (next < batch.size()) {
    // Slice the batch at window boundaries so a snapshot happens at every
    // multiple of `window` even when one Update spans several windows.
    const int64_t to_boundary =
        options_.window - (series_seen_ % options_.window);
    const size_t take =
        std::min(batch.size() - next, static_cast<size_t>(to_boundary));
    std::vector<const Matrix*> fresh;
    fresh.reserve(take);
    for (size_t k = 0; k < take; ++k) {
      window_.push_back(WindowItem{batch[next + k],
                                   series_seen_ + static_cast<int64_t>(k)});
      fresh.push_back(&batch[next + k]);
    }
    fgd_.Add(fresh);
    series_seen_ += static_cast<int64_t>(take);
    while (static_cast<int64_t>(window_.size()) > options_.window) {
      window_.pop_front();
    }
    if (series_seen_ % options_.window == 0) TakeSnapshot();
    next += take;
  }
  return Status::Ok();
}

std::map<std::string, double> StreamEvaluator::Score(int64_t* errors) const {
  std::map<std::string, double> out =
      ScoreWindow(reference_, WindowDataset(), WindowPositions(), errors);
  const StatusOr<double> fgd = fgd_.Value();
  if (fgd.ok()) {
    out["FGD"] = fgd.value();
  } else if (errors != nullptr) {
    ++*errors;
  }
  return out;
}

StatusOr<std::map<std::string, double>> StreamEvaluator::SnapshotNow() const {
  if (window_.empty()) {
    return Status::FailedPrecondition("stream window is empty");
  }
  return Score(nullptr);
}

void StreamEvaluator::TakeSnapshot() {
  ++windows_completed_;
  int64_t errors = 0;
  last_snapshot_ = Score(&errors);
  last_deltas_.clear();

  obs::MetricRegistry& metrics = obs::MetricRegistry::Global();
  const bool export_metrics = !options_.metric_prefix.empty();
  for (const auto& [name, value] : last_snapshot_) {
    const DriftDetector::Result drift = drift_.Observe(name, value);
    last_deltas_[name] = drift.delta;
    if (export_metrics) {
      const std::string base = options_.metric_prefix + "." + name;
      metrics.GetGauge(base).Set(value);
      metrics.GetGauge(base + ".delta").Set(drift.delta);
      if (drift.alarm) metrics.GetCounter(base + ".alarms").Add();
    }
  }
  if (export_metrics) {
    metrics.GetCounter(options_.metric_prefix + ".windows").Add();
    metrics.GetCounter(options_.metric_prefix + ".series")
        .Add(static_cast<int64_t>(window_.size()));
    const int64_t new_alarms = drift_.alarms_total() - exported_alarms_;
    if (new_alarms > 0) {
      metrics.GetCounter(options_.metric_prefix + ".alarms").Add(new_alarms);
    }
    exported_alarms_ = drift_.alarms_total();
    if (errors > 0) {
      metrics.GetCounter(options_.metric_prefix + ".errors").Add(errors);
    }
  }
}

core::Dataset StreamEvaluator::WindowDataset() const {
  std::vector<Matrix> samples;
  samples.reserve(window_.size());
  for (const WindowItem& item : window_) samples.push_back(item.series);
  return core::Dataset("stream_window", std::move(samples));
}

std::vector<int64_t> StreamEvaluator::WindowPositions() const {
  std::vector<int64_t> out;
  out.reserve(window_.size());
  for (const WindowItem& item : window_) out.push_back(item.position);
  return out;
}

Status StreamEvaluator::VerifyExactAgainstBatch() const {
  TSG_ASSIGN_OR_RETURN(const auto snapshot, SnapshotNow());
  const std::map<std::string, double> batch =
      ScoreWindow(reference_, WindowDataset(), WindowPositions(), nullptr);
  for (const WindowMeasure& m : WindowMeasures()) {
    const std::string name = m.measure->name();
    const auto want = batch.find(name);
    const auto got = snapshot.find(name);
    if (want == batch.end() && got == snapshot.end()) continue;
    if (want == batch.end()) {
      return Status::Internal("stream " + name +
                              " produced a value where batch failed");
    }
    if (got == snapshot.end()) {
      return Status::Internal("stream snapshot is missing " + name);
    }
    if (!BitEqual(want->second, got->second)) {
      return Status::Internal("stream " + name +
                              " diverged from batch: stream " +
                              std::to_string(got->second) + " vs batch " +
                              std::to_string(want->second));
    }
  }
  return Status::Ok();
}

}  // namespace tsg::streameval
