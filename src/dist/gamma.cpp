#include "dist/gamma.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "stats/solver.hpp"
#include "stats/special.hpp"

namespace hpcfail::dist {

GammaDist::GammaDist(double shape, double scale)
    : shape_(shape),
      scale_(scale),
      log_gamma_shape_(hpcfail::stats::log_gamma_unchecked(shape)) {
  HPCFAIL_EXPECTS(shape > 0.0 && std::isfinite(shape),
                  "gamma shape must be positive and finite");
  HPCFAIL_EXPECTS(scale > 0.0 && std::isfinite(scale),
                  "gamma scale must be positive and finite");
}

GammaDist GammaDist::fit_mle(std::span<const double> xs, double floor_at) {
  return fit_mle(SuffStats::compute(xs, floor_at));
}

GammaDist GammaDist::fit_mle(const SuffStats& stats) {
  HPCFAIL_EXPECTS(stats.n >= 2, "gamma fit needs at least 2 observations");
  const double mean = stats.mean();
  const double log_mean = std::log(mean);
  // s = ln(mean) - mean(ln x) >= 0 by Jensen, = 0 only for constant data.
  // Both terms carry a few ulps of |ln mean|, so a smaller s (a
  // near-constant sample, shape beyond ~1e13) is rounding noise.
  const double s = log_mean - (stats.log_shift + stats.log_mean_dev);
  if (!(s > 8.0 * std::numeric_limits<double>::epsilon() *
                std::max(1.0, std::fabs(log_mean)))) {
    throw FitError("gamma fit is degenerate on a constant sample");
  }

  // Minka's starting point, then bracketed Newton on ln k - psi(k) = s.
  double k = (3.0 - s + std::sqrt((s - 3.0) * (s - 3.0) + 24.0 * s)) /
             (12.0 * s);
  const auto f = [s](double kk) {
    return std::log(kk) - hpcfail::stats::digamma(kk) - s;
  };
  const auto f_and_slope = [&f](double kk, double& slope) {
    slope = 1.0 / kk - hpcfail::stats::trigamma(kk);
    return f(kk);
  };
  double lo = k / 8.0;
  double hi = k * 8.0;
  if (lo <= 0.0) lo = 1e-8;
  double f_lo = 0.0;
  double f_hi = 0.0;
  hpcfail::stats::expand_bracket(f, lo, hi, f_lo, f_hi);
  k = hpcfail::stats::newton_bracketed(f_and_slope, lo, hi, f_lo, f_hi);
  return GammaDist(k, mean / k);
}

double GammaDist::log_pdf(double x) const {
  if (x <= 0.0) return -std::numeric_limits<double>::infinity();
  return (shape_ - 1.0) * std::log(x) - x / scale_ - log_gamma_shape_ -
         shape_ * std::log(scale_);
}

double GammaDist::cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return hpcfail::stats::reg_gamma_lower_cached(shape_, x / scale_,
                                                log_gamma_shape_);
}

double GammaDist::quantile(double p) const {
  HPCFAIL_EXPECTS(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
  constexpr double kBracketFloor = 1e-12;  // expand_bracket's lowest lo
  if (cdf(kBracketFloor) > p) {
    // The quantile lies below what the x-space bracket reaches, so solve
    // cdf(e^u) = p for u = log x, between log(kBracketFloor) and the
    // small-x limit cdf(x) ~ (x / scale)^shape / Gamma(shape + 1). The
    // residual is relative, as p may lie far below Brent's absolute
    // tolerance. A quantile too small for a double comes back at the edge
    // where the cdf leaves 0, or as 0.
    const auto g = [this, p](double u) { return cdf(std::exp(u)) / p - 1.0; };
    double hi = std::log(kBracketFloor);
    double lo = std::min(hi, std::log(scale_) + (std::log(p) +
                                                 std::lgamma(shape_ + 1.0)) /
                                                    shape_) -
                1.0;
    double g_lo = 0.0;
    double g_hi = 0.0;
    hpcfail::stats::expand_bracket(g, lo, hi, g_lo, g_hi, false);
    return std::exp(hpcfail::stats::brent(g, lo, hi, g_lo, g_hi));
  }
  // Wilson-Hilferty starting point, then bracketed Newton on the CDF.
  const double z = hpcfail::stats::normal_quantile(p);
  const double c = 1.0 - 1.0 / (9.0 * shape_) + z / (3.0 * std::sqrt(shape_));
  double x0 = shape_ * scale_ * c * c * c;
  if (!(x0 > 0.0) || !std::isfinite(x0)) x0 = shape_ * scale_;
  const auto f = [this, p](double x) { return cdf(x) - p; };
  double lo = x0 / 2.0;
  double hi = x0 * 2.0;
  if (lo <= 0.0) lo = 1e-300;
  double f_lo = 0.0;
  double f_hi = 0.0;
  hpcfail::stats::expand_bracket(f, lo, hi, f_lo, f_hi);
  return hpcfail::stats::brent(f, lo, hi, f_lo, f_hi);
}

double GammaDist::sample(hpcfail::Rng& rng) const {
  // Marsaglia & Tsang squeeze method; shape < 1 via the boost
  // Gamma(k) = Gamma(k+1) * U^{1/k}.
  double k = shape_;
  double boost = 1.0;
  if (k < 1.0) {
    boost = std::pow(rng.uniform_pos(), 1.0 / k);
    k += 1.0;
  }
  const double d = k - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    const double z = standard_normal(rng);
    const double v = 1.0 + c * z;
    if (v <= 0.0) continue;
    const double v3 = v * v * v;
    const double u = rng.uniform_pos();
    if (u < 1.0 - 0.0331 * z * z * z * z ||
        std::log(u) < 0.5 * z * z + d * (1.0 - v3 + std::log(v3))) {
      return boost * d * v3 * scale_;
    }
  }
}

std::string GammaDist::describe() const {
  return "gamma(shape=" + hpcfail::format_double(shape_) +
         ", scale=" + hpcfail::format_double(scale_) + ")";
}

std::unique_ptr<Distribution> GammaDist::clone() const {
  return std::make_unique<GammaDist>(*this);
}

}  // namespace hpcfail::dist
