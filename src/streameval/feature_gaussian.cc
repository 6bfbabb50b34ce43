#include "streameval/feature_gaussian.h"

#include <algorithm>
#include <cmath>

#include "base/check.h"
#include "linalg/decomp.h"

namespace tsg::streameval {
namespace {

/// The per-series feature embedding: per-feature temporal mean, then
/// per-feature population stddev (2N values).
std::vector<double> Features(const Matrix& series) {
  const int64_t l = series.rows();
  const int64_t n = series.cols();
  std::vector<double> out(static_cast<size_t>(2 * n), 0.0);
  for (int64_t j = 0; j < n; ++j) {
    double mu = 0.0;
    for (int64_t t = 0; t < l; ++t) mu += series(t, j);
    mu /= static_cast<double>(l);
    double m2 = 0.0;
    for (int64_t t = 0; t < l; ++t) {
      const double d = series(t, j) - mu;
      m2 += d * d;
    }
    out[static_cast<size_t>(j)] = mu;
    out[static_cast<size_t>(n + j)] = std::sqrt(m2 / static_cast<double>(l));
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// GaussianStats: Welford single-point update + Chan parallel merge.
// ---------------------------------------------------------------------------

void GaussianStats::Add(const std::vector<double>& x) {
  const int64_t d = dim();
  TSG_CHECK_EQ(static_cast<int64_t>(x.size()), d);
  ++n;
  std::vector<double> delta(static_cast<size_t>(d));
  for (int64_t i = 0; i < d; ++i) {
    delta[static_cast<size_t>(i)] = x[static_cast<size_t>(i)] -
                                    mean[static_cast<size_t>(i)];
    mean[static_cast<size_t>(i)] +=
        delta[static_cast<size_t>(i)] / static_cast<double>(n);
  }
  for (int64_t i = 0; i < d; ++i) {
    const double d2i = x[static_cast<size_t>(i)] - mean[static_cast<size_t>(i)];
    for (int64_t j = 0; j < d; ++j) {
      m2[static_cast<size_t>(i * d + j)] +=
          delta[static_cast<size_t>(j)] * d2i;
    }
  }
}

void GaussianStats::Merge(const GaussianStats& other) {
  TSG_CHECK_EQ(dim(), other.dim());
  if (other.n == 0) return;
  if (n == 0) {
    *this = other;
    return;
  }
  const int64_t d = dim();
  const double na = static_cast<double>(n);
  const double nb = static_cast<double>(other.n);
  const double nt = na + nb;
  std::vector<double> delta(static_cast<size_t>(d));
  for (int64_t i = 0; i < d; ++i) {
    delta[static_cast<size_t>(i)] =
        other.mean[static_cast<size_t>(i)] - mean[static_cast<size_t>(i)];
  }
  for (int64_t i = 0; i < d; ++i) {
    for (int64_t j = 0; j < d; ++j) {
      m2[static_cast<size_t>(i * d + j)] +=
          other.m2[static_cast<size_t>(i * d + j)] +
          delta[static_cast<size_t>(i)] * delta[static_cast<size_t>(j)] *
              (na * nb / nt);
    }
  }
  for (int64_t i = 0; i < d; ++i) {
    mean[static_cast<size_t>(i)] += delta[static_cast<size_t>(i)] * nb / nt;
  }
  n += other.n;
}

Matrix GaussianStats::Covariance() const {
  TSG_CHECK_GT(n, 1);
  const int64_t d = dim();
  Matrix cov(d, d);
  // The Welford co-moment is symmetric only up to rounding; symmetrize so the
  // Jacobi-based SqrtSymmetric downstream sees an exactly symmetric operand.
  for (int64_t i = 0; i < d; ++i) {
    for (int64_t j = 0; j < d; ++j) {
      cov(i, j) = 0.5 *
                  (m2[static_cast<size_t>(i * d + j)] +
                   m2[static_cast<size_t>(j * d + i)]) /
                  static_cast<double>(n - 1);
    }
  }
  return cov;
}

StatusOr<double> FrechetFromMoments(const GaussianStats& a,
                                    const GaussianStats& b, double ridge) {
  if (a.dim() != b.dim()) {
    return Status::InvalidArgument("feature dimensions differ");
  }
  if (a.n < 2 || b.n < 2) {
    return Status::FailedPrecondition(
        "need at least 2 observations per Gaussian");
  }
  Matrix cov_a = a.Covariance();
  Matrix cov_b = b.Covariance();
  const int64_t d = cov_a.rows();
  for (int64_t i = 0; i < d; ++i) {
    cov_a(i, i) += ridge;
    cov_b(i, i) += ridge;
  }
  double mean_term = 0.0;
  for (int64_t j = 0; j < d; ++j) {
    const double diff = a.mean[static_cast<size_t>(j)] -
                        b.mean[static_cast<size_t>(j)];
    mean_term += diff * diff;
  }
  // Same symmetrized Tr((C1 C2)^{1/2}) route as distance::FrechetDistance.
  StatusOr<Matrix> sqrt_a = linalg::SqrtSymmetric(cov_a);
  if (!sqrt_a.ok()) return sqrt_a.status();
  const Matrix inner =
      linalg::MatMul(linalg::MatMul(sqrt_a.value(), cov_b), sqrt_a.value());
  StatusOr<linalg::EigenResult> eig = linalg::SymmetricEigen(inner);
  if (!eig.ok()) return eig.status();
  double trace_sqrt = 0.0;
  for (double v : eig.value().values) trace_sqrt += std::sqrt(std::max(0.0, v));
  const double fid =
      mean_term + linalg::Trace(cov_a) + linalg::Trace(cov_b) - 2.0 * trace_sqrt;
  return std::max(0.0, fid);
}

// ---------------------------------------------------------------------------
// FGD: moment-feature embedding + streaming Gaussians.
// ---------------------------------------------------------------------------

FeatureGaussian::FeatureGaussian(const core::Dataset& reference)
    : ref_stats_(2 * reference.num_features()),
      gen_stats_(2 * reference.num_features()) {
  for (int64_t i = 0; i < reference.num_samples(); ++i) {
    ref_stats_.Add(Features(reference.sample(i)));
  }
}

void FeatureGaussian::Add(const std::vector<const Matrix*>& batch) {
  // Welford within the batch, Chan merge into the stream accumulator — the
  // association that makes FGD depend on batch boundaries.
  GaussianStats local(gen_stats_.dim());
  for (const Matrix* series : batch) local.Add(Features(*series));
  gen_stats_.Merge(local);
}

StatusOr<double> FeatureGaussian::Value() const {
  return FrechetFromMoments(ref_stats_, gen_stats_);
}

}  // namespace tsg::streameval
