// Abstract interface for the continuous probability distributions used in
// the paper's fits (exponential, Weibull, gamma, lognormal, normal).
//
// Each concrete distribution is a small value type; the polymorphic
// interface exists so analyses can carry "the best-fitting model" without
// caring about its family. The hazard rate accessor exposes the property
// the paper reasons about (Weibull shape < 1 => decreasing hazard).
#pragma once

#include <cmath>
#include <memory>
#include <span>
#include <string>

#include "common/rng.hpp"

namespace hpcfail::dist {

class Distribution {
 public:
  virtual ~Distribution() = default;

  /// Probability density at x.
  double pdf(double x) const;

  /// Natural log of the density at x; -inf outside the support.
  virtual double log_pdf(double x) const = 0;

  /// Cumulative distribution function F(x).
  virtual double cdf(double x) const = 0;

  /// Quantile function F^{-1}(p) for p in (0, 1). Throws InvalidArgument
  /// outside that range.
  virtual double quantile(double p) const = 0;

  virtual double mean() const = 0;
  virtual double variance() const = 0;

  /// Draws one sample using the supplied deterministic generator.
  virtual double sample(hpcfail::Rng& rng) const = 0;

  /// Family name, e.g. "weibull".
  virtual std::string name() const = 0;

  /// Human-readable parameterization, e.g. "weibull(shape=0.70, scale=…)".
  virtual std::string describe() const = 0;

  virtual std::unique_ptr<Distribution> clone() const = 0;

  /// Hazard rate h(x) = f(x) / (1 - F(x)); +inf where F(x) == 1 to double
  /// precision. Families with a closed form override this to stay finite
  /// deep in the tail.
  virtual double hazard(double x) const;

  /// Sum of log_pdf over the sample (the MLE objective).
  double log_likelihood(std::span<const double> xs) const;

  /// Squared coefficient of variation, variance / mean^2.
  double cv_squared() const;
};

/// Standard normal by Marsaglia's polar method: the library's one normal
/// draw, under the normal, lognormal and gamma samplers and the generators.
inline double standard_normal(hpcfail::Rng& rng) {
  double u1;
  double u2;
  double s;
  do {
    u1 = rng.uniform(-1.0, 1.0);
    u2 = rng.uniform(-1.0, 1.0);
    s = u1 * u1 + u2 * u2;
  } while (s >= 1.0 || s == 0.0);
  return u1 * std::sqrt(-2.0 * std::log(s) / s);
}

}  // namespace hpcfail::dist
