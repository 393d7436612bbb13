// Weibull distribution — the paper's headline model for time between
// failures: shape 0.7-0.8 fits both per-node and system-wide interarrivals
// late in production, implying a decreasing hazard rate (a long failure-free
// interval makes the next failure *less* imminent).
#pragma once

#include <span>

#include "dist/distribution.hpp"
#include "dist/suffstats.hpp"

namespace hpcfail::dist {

class Weibull final : public Distribution {
 public:
  /// F(x) = 1 - exp(-(x/scale)^shape); both parameters > 0 and finite,
  /// otherwise InvalidArgument.
  Weibull(double shape, double scale);

  /// MLE by profile likelihood in the shape: solve
  ///   g(k) = sum x^k ln x / sum x^k - 1/k - mean(ln x) = 0
  /// with safeguarded Newton, then scale = (mean of x^k)^{1/k}.
  /// Non-positive observations are floored at `floor_at` (failure records
  /// have 1-second resolution; exact-zero interarrivals from simultaneous
  /// failures would otherwise have zero likelihood under any Weibull).
  /// Builds the sample's SuffStats and logs, then runs
  /// fit_mle_from_logs with the statistics' log-mean and shape hint — the
  /// same call the batch fitters make, so the results are bit-identical.
  /// Requires at least 2 observations and non-negative data; a
  /// constant-valued sample throws FitError (the shape is unidentified).
  static Weibull fit_mle(std::span<const double> xs, double floor_at = 1e-9);

  /// Solver core over cached logarithms: logs[i] = log(max(x_i, floor)),
  /// mean_log their mean. The profile-likelihood iteration touches only
  /// the logs, so each solver step is log()-free. Requires at least 2
  /// logs; constant logs throw FitError.
  ///
  /// A positive `shape_hint` (shape_hint_from()) starts the bracket
  /// around the hint instead of the cold [1e-3, 10] interval, roughly
  /// halving the solver iterations. The root the solver converges to is
  /// the same to solver tolerance (~1e-12), but the iterate sequence —
  /// and hence the last few bits of the result — may differ from the
  /// cold start.
  static Weibull fit_mle_from_logs(std::span<const double> logs,
                                   double mean_log, double shape_hint = 0.0);

  /// Gumbel method-of-moments shape estimate (pi/sqrt(6)) / stddev(log x)
  /// from the statistics' log-variance; 0 when the statistics cannot
  /// produce one (empty or zero log-variance).
  static double shape_hint_from(const SuffStats& stats) noexcept;

  /// MLE with right-censoring: `events` are observed failure intervals,
  /// `censored` are intervals that ended without a failure (e.g. each
  /// node's last failure-free stretch, cut off by the end of
  /// observation). Ignoring censoring biases the shape and scale low;
  /// this maximizes the full likelihood
  ///   sum log f(event) + sum log S(censored)
  /// with the shape solver of fit_mle_from_logs, run once over the pooled
  /// sample's logs from the cold [1e-3, 10] bracket. Requires at least 2
  /// events; a constant pooled sample throws FitError.
  static Weibull fit_mle_censored(std::span<const double> events,
                                  std::span<const double> censored,
                                  double floor_at = 1e-9);

  double shape() const noexcept { return shape_; }
  double scale() const noexcept { return scale_; }

  /// True when the hazard rate decreases with time (shape < 1).
  bool decreasing_hazard() const noexcept { return shape_ < 1.0; }

  double log_pdf(double x) const override;
  double cdf(double x) const override;
  double quantile(double p) const override;
  double mean() const override;
  double variance() const override;
  double sample(hpcfail::Rng& rng) const override;
  /// Closed form h(x) = (shape/scale) (x/scale)^{shape-1}, finite for all
  /// x > 0 even where 1 - F(x) underflows.
  double hazard(double x) const override;
  std::string name() const override { return "weibull"; }
  std::string describe() const override;
  std::unique_ptr<Distribution> clone() const override;

 private:
  /// The profile-likelihood shape solver under both MLEs: `logs` are the
  /// pooled sample's logarithms, scaled by exp(centre) for stability,
  /// `offset` is the mean log the score subtracts and `events` the count
  /// the scale divides sum x^k by; `shape_hint` as for fit_mle_from_logs.
  static Weibull solve_shape(std::span<const double> logs, double centre,
                             double offset, std::size_t events,
                             double shape_hint);

  double shape_;
  double scale_;
};

}  // namespace hpcfail::dist
