#ifndef TSG_STREAMEVAL_FEATURE_GAUSSIAN_H_
#define TSG_STREAMEVAL_FEATURE_GAUSSIAN_H_

#include <cstdint>
#include <vector>

#include "base/status.h"
#include "core/dataset.h"
#include "linalg/matrix.h"

namespace tsg::streameval {

using linalg::Matrix;

/// Streaming mean/covariance over d-dimensional feature vectors: single-point
/// Welford updates plus Chan's parallel merge rule, so batches can be
/// accumulated independently and folded in. Covariance uses the n-1 (sample)
/// denominator, matching linalg::RowCovariance.
struct GaussianStats {
  explicit GaussianStats(int64_t dim = 0)
      : n(0), mean(static_cast<size_t>(dim), 0.0),
        m2(static_cast<size_t>(dim * dim), 0.0) {}

  int64_t dim() const { return static_cast<int64_t>(mean.size()); }
  /// Welford single-observation update.
  void Add(const std::vector<double>& x);
  /// Chan merge: after Merge(other), the state equals (up to floating-point
  /// association) having Add()ed both operands' observations.
  void Merge(const GaussianStats& other);
  /// Sample covariance (n-1 denominator) as a dense (d x d) matrix; n >= 2.
  Matrix Covariance() const;

  int64_t n;
  std::vector<double> mean;
  std::vector<double> m2;  ///< Co-moment matrix, row-major (d x d).
};

/// FGD — feature-Gaussian divergence, the one stream-level (not windowed)
/// measure of the stream evaluator. Embeds each series as a 2N-dim feature
/// vector (per-feature temporal mean and population stddev — the summary
/// statistics a discriminative critic separates sets by), maintains a streaming
/// Gaussian over ALL generated series seen, so it tracks lifetime drift rather
/// than the window, and reports the Frechet distance against a Gaussian frozen
/// on the reference set — the C-FID formula on moment features instead of
/// learned embeddings. It has no batch counterpart, so it is the only
/// incremental state the evaluator keeps.
///
/// Bounded-error, not exact: Welford/Chan accumulation associates
/// floating-point sums by batch boundary, so two streams with different
/// chunkings agree only to ~1e-9 relative error (tested by tolerance).
class FeatureGaussian {
 public:
  explicit FeatureGaussian(const core::Dataset& reference);

  /// Folds one batch in: Welford within the batch, then a Chan merge into the
  /// stream accumulator.
  void Add(const std::vector<const Matrix*>& batch);

  /// Frechet distance between the reference and stream Gaussians;
  /// FailedPrecondition until the stream holds 2 series.
  StatusOr<double> Value() const;

 private:
  GaussianStats ref_stats_;
  GaussianStats gen_stats_;
};

/// Frechet distance between two moment-parameterized Gaussians — the
/// distance::FrechetDistance formula starting from (mean, covariance) instead
/// of raw embedding rows. Requires both accumulators to hold >= 2 observations.
StatusOr<double> FrechetFromMoments(const GaussianStats& a,
                                    const GaussianStats& b,
                                    double ridge = 1e-6);

}  // namespace tsg::streameval

#endif  // TSG_STREAMEVAL_FEATURE_GAUSSIAN_H_
