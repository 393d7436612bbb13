#include "dist/hyperexp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "stats/descriptive.hpp"
#include "stats/solver.hpp"

namespace hpcfail::dist {

HyperExp::HyperExp(double p, double rate1, double rate2)
    : p_(p), rate1_(rate1), rate2_(rate2) {
  HPCFAIL_EXPECTS(p >= 0.0 && p <= 1.0, "mixture weight must be in [0,1]");
  HPCFAIL_EXPECTS(rate1 > 0.0 && std::isfinite(rate1),
                  "rate1 must be positive and finite");
  HPCFAIL_EXPECTS(rate2 > 0.0 && std::isfinite(rate2),
                  "rate2 must be positive and finite");
}

namespace {
// EM stops after this many iterations, or once an iteration raises the
// log-likelihood by less than this much per observation.
constexpr int kEmMaxIterations = 400;
constexpr double kEmTolerance = 1e-9;
}  // namespace

HyperExp HyperExp::fit_em(std::span<const double> xs, double floor_at) {
  HPCFAIL_EXPECTS(xs.size() >= 4, "H2 fit needs at least 4 observations");
  HPCFAIL_EXPECTS(floor_at > 0.0, "H2 fit floor must be positive");
  std::vector<double> data;
  data.reserve(xs.size());
  for (const double x : xs) {
    HPCFAIL_EXPECTS(x >= 0.0, "H2 fit requires non-negative data");
    data.push_back(x < floor_at ? floor_at : x);
  }
  const auto n = static_cast<double>(data.size());

  // Initialize by splitting at the median: the fast phase explains the
  // lower half, the slow phase the upper half.
  std::vector<double> sorted = data;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t half = sorted.size() / 2;
  double lower_mean = 0.0;
  double upper_mean = 0.0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    (i < half ? lower_mean : upper_mean) += sorted[i];
  }
  lower_mean /= static_cast<double>(half);
  upper_mean /= static_cast<double>(sorted.size() - half);
  if (!(upper_mean > lower_mean)) {
    throw FitError("H2 fit is degenerate on a (near-)constant sample");
  }

  double p = 0.5;
  double r1 = 1.0 / lower_mean;
  double r2 = 1.0 / upper_mean;

  double prev_ll = -std::numeric_limits<double>::infinity();
  std::vector<double> resp(data.size());
  for (int iter = 0; iter < kEmMaxIterations; ++iter) {
    // E-step: responsibility of phase 1 for each observation, computed in
    // log space for numerical safety on second-scale data.
    double ll = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      const double l1 = std::log(p) + std::log(r1) - r1 * data[i];
      const double l2 = std::log1p(-p) + std::log(r2) - r2 * data[i];
      const double mx = std::max(l1, l2);
      const double log_f =
          mx + std::log(std::exp(l1 - mx) + std::exp(l2 - mx));
      resp[i] = std::exp(l1 - log_f);
      ll += log_f;
    }
    // M-step.
    double sum_r = 0.0;
    double sum_rx = 0.0;
    double sum_qx = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      sum_r += resp[i];
      sum_rx += resp[i] * data[i];
      sum_qx += (1.0 - resp[i]) * data[i];
    }
    // A collapsed phase means a single exponential explains the data.
    if (sum_r < 1e-9 || n - sum_r < 1e-9 || sum_rx <= 0.0 ||
        sum_qx <= 0.0) {
      break;
    }
    p = std::clamp(sum_r / n, 1e-9, 1.0 - 1e-9);
    r1 = sum_r / sum_rx;
    r2 = (n - sum_r) / sum_qx;

    if (ll - prev_ll < kEmTolerance * n && iter > 0) {
      break;
    }
    prev_ll = ll;
  }
  // Canonical order: phase 1 is the faster (higher-rate) phase.
  if (r1 < r2) {
    std::swap(r1, r2);
    p = 1.0 - p;
  }
  return HyperExp(p, r1, r2);
}

double HyperExp::log_pdf(double x) const {
  if (x < 0.0) return -std::numeric_limits<double>::infinity();
  const double f = p_ * rate1_ * std::exp(-rate1_ * x) +
                   (1.0 - p_) * rate2_ * std::exp(-rate2_ * x);
  return f > 0.0 ? std::log(f)
                 : -std::numeric_limits<double>::infinity();
}

double HyperExp::cdf(double x) const {
  if (x <= 0.0) return 0.0;
  return 1.0 - p_ * std::exp(-rate1_ * x) -
         (1.0 - p_) * std::exp(-rate2_ * x);
}

double HyperExp::quantile(double prob) const {
  HPCFAIL_EXPECTS(prob > 0.0 && prob < 1.0, "quantile requires p in (0,1)");
  // Bracket with the slower phase's exponential quantile and solve.
  const double slow_rate = std::min(rate1_, rate2_);
  double hi = -std::log1p(-prob) / slow_rate + 1.0;
  const auto f = [this, prob](double x) { return cdf(x) - prob; };
  double lo = 0.0;
  double f_lo = 0.0;
  double f_hi = 0.0;
  hpcfail::stats::expand_bracket(f, lo, hi, f_lo, f_hi,
                                 /*positive_only=*/false);
  return hpcfail::stats::brent(f, lo, hi, f_lo, f_hi);
}

double HyperExp::mean() const {
  return p_ / rate1_ + (1.0 - p_) / rate2_;
}

double HyperExp::variance() const {
  const double m = mean();
  const double second_moment = 2.0 * (p_ / (rate1_ * rate1_) +
                                      (1.0 - p_) / (rate2_ * rate2_));
  return second_moment - m * m;
}

double HyperExp::sample(hpcfail::Rng& rng) const {
  const double rate = rng.bernoulli(p_) ? rate1_ : rate2_;
  return -std::log(rng.uniform_pos()) / rate;
}

std::string HyperExp::describe() const {
  return "hyperexp(p=" + hpcfail::format_double(p_) +
         ", rate1=" + hpcfail::format_double(rate1_) +
         ", rate2=" + hpcfail::format_double(rate2_) + ")";
}

std::unique_ptr<Distribution> HyperExp::clone() const {
  return std::make_unique<HyperExp>(*this);
}

}  // namespace hpcfail::dist
