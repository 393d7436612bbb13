#include "dist/weibull.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "stats/solver.hpp"
#include "stats/special.hpp"

namespace hpcfail::dist {

Weibull::Weibull(double shape, double scale) : shape_(shape), scale_(scale) {
  HPCFAIL_EXPECTS(shape > 0.0 && std::isfinite(shape),
                  "weibull shape must be positive and finite");
  HPCFAIL_EXPECTS(scale > 0.0 && std::isfinite(scale),
                  "weibull scale must be positive and finite");
}

Weibull Weibull::fit_mle(std::span<const double> xs, double floor_at) {
  std::vector<double> logs(xs.size());
  const SuffStats stats = SuffStats::compute(xs, floor_at, logs);
  return fit_mle_from_logs(logs, stats.log_shift + stats.log_mean_dev,
                           shape_hint_from(stats));
}

double Weibull::shape_hint_from(const SuffStats& stats) noexcept {
  const double var_log = stats.log_m2 / static_cast<double>(stats.n);
  if (!(var_log > 0.0)) return 0.0;
  // For Weibull data, log x is Gumbel with stddev (pi/sqrt(6)) / shape.
  return 1.2825498301618641 / std::sqrt(var_log);
}

Weibull Weibull::fit_mle_from_logs(std::span<const double> logs,
                                   double mean_log, double shape_hint) {
  HPCFAIL_EXPECTS(logs.size() >= 2,
                  "weibull fit needs at least 2 observations");
  if (std::all_of(logs.begin(), logs.end(),
                  [&](double lx) { return lx == logs.front(); })) {
    throw FitError("weibull fit is degenerate on a constant sample");
  }
  return solve_shape(logs, mean_log, mean_log, logs.size(), shape_hint);
}

Weibull Weibull::solve_shape(std::span<const double> logs, double centre,
                             double offset, std::size_t events,
                             double shape_hint) {
  // Profile-likelihood score in the shape k. Work with x scaled by
  // exp(centre) (subtract centre in the exponent) for stability on
  // second-scale data spanning 7 orders of magnitude. Only the cached
  // logarithms enter the iteration, so each solver step is log()-free.
  const auto score_and_slope = [&](double k, double& slope) {
    double sw = 0.0;       // sum x^k (scaled)
    double swl = 0.0;      // sum x^k ln x
    double swl2 = 0.0;     // sum x^k (ln x)^2
    for (const double lx : logs) {
      const double w = std::exp(k * (lx - centre));
      sw += w;
      swl += w * lx;
      swl2 += w * lx * lx;
    }
    const double ratio = swl / sw;
    slope = (swl2 / sw - ratio * ratio) + 1.0 / (k * k);
    return ratio - 1.0 / k - offset;
  };
  const auto score = [&](double k) {
    double unused;
    return score_and_slope(k, unused);
  };

  // The score is strictly increasing in k (its slope is a weighted
  // log-variance plus 1/k^2), so any sign-changing bracket finds the same
  // root. A trustworthy hint gives a tight initial bracket that
  // expand_bracket usually accepts as-is.
  double lo = 1e-3;
  double hi = 10.0;
  if (shape_hint > 0.0 && std::isfinite(shape_hint)) {
    const double hint = std::clamp(shape_hint, 1e-3, 64.0);
    lo = hint / 1.5;
    hi = hint * 1.5;
  }
  double f_lo = 0.0;
  double f_hi = 0.0;
  hpcfail::stats::expand_bracket(score, lo, hi, f_lo, f_hi);
  const double k =
      hpcfail::stats::newton_bracketed(score_and_slope, lo, hi, f_lo, f_hi);

  double sw = 0.0;
  for (const double lx : logs) sw += std::exp(k * (lx - centre));
  const double scale =
      std::exp(centre + std::log(sw / static_cast<double>(events)) / k);
  return Weibull(k, scale);
}

Weibull Weibull::fit_mle_censored(std::span<const double> events,
                                  std::span<const double> censored,
                                  double floor_at) {
  HPCFAIL_EXPECTS(events.size() >= 2,
                  "censored weibull fit needs at least 2 events");
  HPCFAIL_EXPECTS(floor_at > 0.0, "weibull fit floor must be positive");
  // Pool the logs of events and censored times, events first. The score
  // has the uncensored form, with the weighted sums over the pooled data
  // and the log-mean over events only:
  //   g(k) = sum_all x^k ln x / sum_all x^k - 1/k
  //          - (1/n_events) sum_events ln x.
  std::vector<double> logs;
  logs.reserve(events.size() + censored.size());
  const double first = events.front() < floor_at ? floor_at : events.front();
  bool varies = false;
  for (const std::span<const double> xs : {events, censored}) {
    for (const double x : xs) {
      HPCFAIL_EXPECTS(x >= 0.0, "weibull fit requires non-negative data");
      const double v = x < floor_at ? floor_at : x;
      varies = varies || v != first;
      logs.push_back(std::log(v));
    }
  }
  if (!varies) {
    throw FitError("censored weibull fit is degenerate on a constant sample");
  }
  const auto n_events = static_cast<std::ptrdiff_t>(events.size());
  const double mean_event_log =
      std::accumulate(logs.begin(), logs.begin() + n_events, 0.0) /
      static_cast<double>(events.size());
  const double centre = std::accumulate(logs.begin(), logs.end(), 0.0) /
                        static_cast<double>(logs.size());
  return solve_shape(logs, centre, mean_event_log, events.size(), 0.0);
}

double Weibull::log_pdf(double x) const {
  if (x <= 0.0) return -std::numeric_limits<double>::infinity();
  const double z = x / scale_;
  return std::log(shape_ / scale_) + (shape_ - 1.0) * std::log(z) -
         std::pow(z, shape_);
}

double Weibull::cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return -std::expm1(-std::pow(x / scale_, shape_));
}

double Weibull::quantile(double p) const {
  HPCFAIL_EXPECTS(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
  return scale_ * std::pow(-std::log1p(-p), 1.0 / shape_);
}

double Weibull::mean() const {
  return scale_ *
         std::exp(hpcfail::stats::log_gamma_unchecked(1.0 + 1.0 / shape_));
}

double Weibull::variance() const {
  const double g1 =
      std::exp(hpcfail::stats::log_gamma_unchecked(1.0 + 1.0 / shape_));
  const double g2 =
      std::exp(hpcfail::stats::log_gamma_unchecked(1.0 + 2.0 / shape_));
  return scale_ * scale_ * (g2 - g1 * g1);
}

double Weibull::hazard(double x) const {
  if (x <= 0.0) return 0.0;
  return shape_ / scale_ * std::pow(x / scale_, shape_ - 1.0);
}

double Weibull::sample(hpcfail::Rng& rng) const {
  return scale_ * std::pow(-std::log(rng.uniform_pos()), 1.0 / shape_);
}

std::string Weibull::describe() const {
  return "weibull(shape=" + hpcfail::format_double(shape_) +
         ", scale=" + hpcfail::format_double(scale_) + ")";
}

std::unique_ptr<Distribution> Weibull::clone() const {
  return std::make_unique<Weibull>(*this);
}

}  // namespace hpcfail::dist
