// Lognormal distribution — the paper's best model for repair times
// (Fig 7a) and for per-node time between failures early in production
// (Fig 6a), where variability is too high for a Weibull/gamma.
#pragma once

#include <span>

#include "dist/distribution.hpp"
#include "dist/suffstats.hpp"

namespace hpcfail::dist {

class LogNormal final : public Distribution {
 public:
  /// ln X ~ N(mu, sigma^2); sigma > 0 and both finite, otherwise
  /// InvalidArgument.
  LogNormal(double mu, double sigma);

  /// Constructs from the distribution's own mean and median
  /// (mu = ln median, sigma = sqrt(2 ln(mean/median))); requires
  /// mean > median > 0. This is how the synthetic generator turns
  /// Table 2's reported repair-time moments into samplers.
  static LogNormal from_mean_median(double mean, double median);

  /// Closed-form MLE: mu/sigma are the mean/stddev of ln x (with the
  /// population 1/n variance, as MLE prescribes). Non-positive values are
  /// floored at `floor_at`. Forwards to the SuffStats overload.
  static LogNormal fit_mle(std::span<const double> xs, double floor_at = 1e-9);

  /// MLE from sufficient statistics: O(1) in the sample size, reading mu
  /// and sigma from the shifted log moments. Requires >= 2 observations;
  /// a constant sample throws FitError (sigma would be zero).
  static LogNormal fit_mle(const SuffStats& stats);

  double mu() const noexcept { return mu_; }
  double sigma() const noexcept { return sigma_; }
  double median() const noexcept;

  double log_pdf(double x) const override;
  double cdf(double x) const override;
  double quantile(double p) const override;
  double mean() const override;
  double variance() const override;
  double sample(hpcfail::Rng& rng) const override;
  std::string name() const override { return "lognormal"; }
  std::string describe() const override;
  std::unique_ptr<Distribution> clone() const override;

 private:
  double mu_;
  double sigma_;
};

}  // namespace hpcfail::dist
