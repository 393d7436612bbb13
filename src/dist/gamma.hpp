// Gamma distribution — ties with the Weibull as the paper's best model for
// time between failures late in production (Fig 6b/6d).
#pragma once

#include <span>

#include "dist/distribution.hpp"
#include "dist/suffstats.hpp"

namespace hpcfail::dist {

class GammaDist final : public Distribution {
 public:
  /// Density x^{shape-1} e^{-x/scale} / (Gamma(shape) scale^shape); both
  /// parameters > 0 and finite, otherwise InvalidArgument.
  GammaDist(double shape, double scale);

  /// MLE: Newton iteration on ln k - psi(k) = ln(mean) - mean(ln x),
  /// started from the Minka closed-form approximation; then
  /// scale = mean / k. Non-positive observations are floored at `floor_at`
  /// (same rationale as Weibull::fit_mle). Forwards to the SuffStats
  /// overload.
  static GammaDist fit_mle(std::span<const double> xs, double floor_at = 1e-9);

  /// MLE from sufficient statistics: O(1) in the sample size (the Newton
  /// iteration only touches the moments). Requires >= 2 observations; a
  /// constant sample — or one whose ln(mean) - mean(ln x) is below the
  /// rounding of its logs — throws FitError.
  static GammaDist fit_mle(const SuffStats& stats);

  double shape() const noexcept { return shape_; }
  double scale() const noexcept { return scale_; }

  double log_pdf(double x) const override;
  double cdf(double x) const override;
  double quantile(double p) const override;
  double mean() const override { return shape_ * scale_; }
  double variance() const override { return shape_ * scale_ * scale_; }
  double sample(hpcfail::Rng& rng) const override;
  std::string name() const override { return "gamma"; }
  std::string describe() const override;
  std::unique_ptr<Distribution> clone() const override;

 private:
  double shape_;
  double scale_;
  double log_gamma_shape_;  ///< ln Gamma(shape), shared by pdf and cdf
};

}  // namespace hpcfail::dist
