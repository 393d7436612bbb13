// Two-phase hyperexponential distribution (H2) fitted by EM.
//
// Section 3 of the paper remarks that "a phase-type distribution with a
// high number of phases would likely give a better fit than any of the
// above standard distributions" but declines the extra degrees of freedom.
// This module makes that claim testable: H2 is the simplest non-trivial
// phase-type model (C^2 >= 1 by construction), and bench_ext_phasetype
// pits it against the Weibull on the synthetic trace.
#pragma once

#include <span>

#include "dist/distribution.hpp"

namespace hpcfail::dist {

class HyperExp final : public Distribution {
 public:
  /// Mixture p * Exp(rate1) + (1-p) * Exp(rate2). Requires p in [0, 1]
  /// and positive finite rates; throws InvalidArgument otherwise.
  HyperExp(double p, double rate1, double rate2);

  /// Maximum-likelihood fit via expectation-maximization, initialized by
  /// splitting the sample at its median and run for at most 400
  /// iterations, until one raises the log-likelihood by less than 1e-9
  /// per observation. Values below `floor_at` are floored (same rationale
  /// as the other positive-support fitters). Requires >= 4 observations;
  /// a (near-)constant sample throws FitError (the two phases cannot be
  /// separated).
  static HyperExp fit_em(std::span<const double> xs, double floor_at = 1e-9);

  double weight() const noexcept { return p_; }
  double rate1() const noexcept { return rate1_; }
  double rate2() const noexcept { return rate2_; }

  double log_pdf(double x) const override;
  double cdf(double x) const override;
  double quantile(double p) const override;
  double mean() const override;
  double variance() const override;
  double sample(hpcfail::Rng& rng) const override;
  std::string name() const override { return "hyperexponential"; }
  std::string describe() const override;
  std::unique_ptr<Distribution> clone() const override;

 private:
  double p_;
  double rate1_;
  double rate2_;
};

}  // namespace hpcfail::dist
