// Exponential distribution — the paper's baseline model, consistently the
// worst fit for both time-between-failures and repair times (its C^2 is
// pinned at 1 while the data's is 1.9-294).
#pragma once

#include <span>

#include "dist/distribution.hpp"
#include "dist/suffstats.hpp"

namespace hpcfail::dist {

class Exponential final : public Distribution {
 public:
  /// Rate lambda > 0 (mean 1/lambda). Throws InvalidArgument otherwise.
  explicit Exponential(double rate);

  static Exponential from_mean(double mean) { return Exponential(1.0 / mean); }

  /// Closed-form MLE: lambda = 1 / sample mean. Requires a non-empty
  /// sample of non-negative values with positive mean. Forwards to the
  /// SuffStats overload.
  static Exponential fit_mle(std::span<const double> xs);

  /// MLE from sufficient statistics: lambda = n / sum of the raw
  /// (unfloored) sample.
  static Exponential fit_mle(const SuffStats& stats);

  double rate() const noexcept { return rate_; }

  double log_pdf(double x) const override;
  double cdf(double x) const override;
  double quantile(double p) const override;
  double mean() const override { return 1.0 / rate_; }
  double variance() const override { return 1.0 / (rate_ * rate_); }
  double sample(hpcfail::Rng& rng) const override;
  /// Memoryless: h(x) = rate for every x in the support.
  double hazard(double x) const override;
  std::string name() const override { return "exponential"; }
  std::string describe() const override;
  std::unique_ptr<Distribution> clone() const override;

 private:
  double rate_;
};

}  // namespace hpcfail::dist
