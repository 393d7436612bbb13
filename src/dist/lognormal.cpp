#include "dist/lognormal.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "stats/special.hpp"

namespace hpcfail::dist {

LogNormal::LogNormal(double mu, double sigma) : mu_(mu), sigma_(sigma) {
  HPCFAIL_EXPECTS(std::isfinite(mu), "lognormal mu must be finite");
  HPCFAIL_EXPECTS(sigma > 0.0 && std::isfinite(sigma),
                  "lognormal sigma must be positive and finite");
}

LogNormal LogNormal::from_mean_median(double mean, double median) {
  HPCFAIL_EXPECTS(median > 0.0, "lognormal median must be positive");
  HPCFAIL_EXPECTS(mean > median,
                  "lognormal requires mean > median (right skew)");
  const double mu = std::log(median);
  const double sigma = std::sqrt(2.0 * std::log(mean / median));
  return LogNormal(mu, sigma);
}

LogNormal LogNormal::fit_mle(std::span<const double> xs, double floor_at) {
  return fit_mle(SuffStats::compute(xs, floor_at));
}

LogNormal LogNormal::fit_mle(const SuffStats& stats) {
  HPCFAIL_EXPECTS(stats.n >= 2, "lognormal fit needs at least 2 observations");
  // Shifted deviations of a constant sample are exactly zero, so sigma
  // is exactly zero on it.
  const double mu = stats.log_shift + stats.log_mean_dev;
  const double sigma =
      std::sqrt(stats.log_m2 / static_cast<double>(stats.n));
  if (!(sigma > 0.0)) {
    throw FitError("lognormal fit is degenerate on a constant sample");
  }
  return LogNormal(mu, sigma);
}

double LogNormal::median() const noexcept { return std::exp(mu_); }

double LogNormal::log_pdf(double x) const {
  if (x <= 0.0) return -std::numeric_limits<double>::infinity();
  const double z = (std::log(x) - mu_) / sigma_;
  return -0.5 * z * z - std::log(x * sigma_) -
         0.5 * std::log(2.0 * 3.14159265358979323846);
}

double LogNormal::cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return hpcfail::stats::normal_cdf((std::log(x) - mu_) / sigma_);
}

double LogNormal::quantile(double p) const {
  HPCFAIL_EXPECTS(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
  return std::exp(mu_ + sigma_ * hpcfail::stats::normal_quantile(p));
}

double LogNormal::mean() const {
  return std::exp(mu_ + 0.5 * sigma_ * sigma_);
}

double LogNormal::variance() const {
  const double s2 = sigma_ * sigma_;
  return (std::exp(s2) - 1.0) * std::exp(2.0 * mu_ + s2);
}

double LogNormal::sample(hpcfail::Rng& rng) const {
  const double z = standard_normal(rng);
  return std::exp(mu_ + sigma_ * z);
}

std::string LogNormal::describe() const {
  return "lognormal(mu=" + hpcfail::format_double(mu_) +
         ", sigma=" + hpcfail::format_double(sigma_) + ")";
}

std::unique_ptr<Distribution> LogNormal::clone() const {
  return std::make_unique<LogNormal>(*this);
}

}  // namespace hpcfail::dist
