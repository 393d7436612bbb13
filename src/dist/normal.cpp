#include "dist/normal.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "stats/special.hpp"

namespace hpcfail::dist {

Normal::Normal(double mu, double sigma) : mu_(mu), sigma_(sigma) {
  HPCFAIL_EXPECTS(std::isfinite(mu), "normal mu must be finite");
  HPCFAIL_EXPECTS(sigma > 0.0 && std::isfinite(sigma),
                  "normal sigma must be positive and finite");
}

Normal Normal::fit_mle(std::span<const double> xs) {
  HPCFAIL_EXPECTS(xs.size() >= 2, "normal fit needs at least 2 observations");
  double sum = 0.0;
  for (const double x : xs) sum += x;
  const auto n = static_cast<double>(xs.size());
  const double mu = sum / n;
  double ss = 0.0;
  for (const double x : xs) {
    const double d = x - mu;
    ss += d * d;
  }
  const double sigma = std::sqrt(ss / n);
  if (!(sigma > 0.0)) {
    throw FitError("normal fit is degenerate on a constant sample");
  }
  return Normal(mu, sigma);
}

double Normal::log_pdf(double x) const {
  const double z = (x - mu_) / sigma_;
  return -0.5 * z * z - std::log(sigma_) -
         0.5 * std::log(2.0 * 3.14159265358979323846);
}

double Normal::cdf(double x) const {
  return hpcfail::stats::normal_cdf((x - mu_) / sigma_);
}

double Normal::quantile(double p) const {
  HPCFAIL_EXPECTS(p > 0.0 && p < 1.0, "quantile requires p in (0,1)");
  return mu_ + sigma_ * hpcfail::stats::normal_quantile(p);
}

double Normal::sample(hpcfail::Rng& rng) const {
  const double z = standard_normal(rng);
  return mu_ + sigma_ * z;
}

std::string Normal::describe() const {
  return "normal(mu=" + hpcfail::format_double(mu_) +
         ", sigma=" + hpcfail::format_double(sigma_) + ")";
}

std::unique_ptr<Distribution> Normal::clone() const {
  return std::make_unique<Normal>(*this);
}

}  // namespace hpcfail::dist
