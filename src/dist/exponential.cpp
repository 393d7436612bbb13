#include "dist/exponential.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/strings.hpp"

namespace hpcfail::dist {

Exponential::Exponential(double rate) : rate_(rate) {
  HPCFAIL_EXPECTS(rate > 0.0 && std::isfinite(rate),
                  "exponential rate must be positive and finite");
}

Exponential Exponential::fit_mle(std::span<const double> xs) {
  return fit_mle(SuffStats::compute(xs));
}

Exponential Exponential::fit_mle(const SuffStats& stats) {
  HPCFAIL_EXPECTS(stats.n > 0, "exponential fit on empty sample");
  const double m = stats.sum_raw / static_cast<double>(stats.n);
  HPCFAIL_EXPECTS(m > 0.0, "exponential fit requires positive sample mean");
  return Exponential(1.0 / m);
}

double Exponential::log_pdf(double x) const {
  if (x < 0.0) return -std::numeric_limits<double>::infinity();
  return std::log(rate_) - rate_ * x;
}

double Exponential::cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return -std::expm1(-rate_ * x);
}

double Exponential::quantile(double p) const {
  HPCFAIL_EXPECTS(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
  return -std::log1p(-p) / rate_;
}

double Exponential::sample(hpcfail::Rng& rng) const {
  return -std::log(rng.uniform_pos()) / rate_;
}

double Exponential::hazard(double x) const {
  return x >= 0.0 ? rate_ : 0.0;
}

std::string Exponential::describe() const {
  return "exponential(rate=" + hpcfail::format_double(rate_) + ")";
}

std::unique_ptr<Distribution> Exponential::clone() const {
  return std::make_unique<Exponential>(*this);
}

}  // namespace hpcfail::dist
