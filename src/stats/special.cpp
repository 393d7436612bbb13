#include "stats/special.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace hpcfail::stats {

double digamma(double x) {
  HPCFAIL_EXPECTS(x > 0.0, "digamma requires x > 0");
  // Recur upward until x is large enough for the asymptotic series.
  double result = 0.0;
  while (x < 10.0) {
    result -= 1.0 / x;
    x += 1.0;
  }
  // Asymptotic expansion: ln x - 1/(2x) - sum B_{2n} / (2n x^{2n}).
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  result += std::log(x) - 0.5 * inv;
  result -= inv2 * (1.0 / 12.0 -
                    inv2 * (1.0 / 120.0 -
                            inv2 * (1.0 / 252.0 -
                                    inv2 * (1.0 / 240.0 -
                                            inv2 * (1.0 / 132.0)))));
  return result;
}

double trigamma(double x) {
  HPCFAIL_EXPECTS(x > 0.0, "trigamma requires x > 0");
  double result = 0.0;
  while (x < 10.0) {
    result += 1.0 / (x * x);
    x += 1.0;
  }
  const double inv = 1.0 / x;
  const double inv2 = inv * inv;
  // psi'(x) ~ 1/x + 1/(2x^2) + sum B_{2n} / x^{2n+1}.
  result += inv * (1.0 +
                   inv * (0.5 +
                          inv * (1.0 / 6.0 -
                                 inv2 * (1.0 / 30.0 -
                                         inv2 * (1.0 / 42.0 -
                                                 inv2 * (1.0 / 30.0))))));
  return result;
}

namespace {

// Iteration cap of the series and the continued fraction below. Near
// x ~ a both need O(sqrt(a)) terms — the series terms decay like
// exp(-n^2 / 2a), so 1e-16 takes about 9 sqrt(a) of them — and a fixed
// cap of 500 fails from a ~ 3000 on.
std::int64_t iteration_cap(double a) {
  return 500 + static_cast<std::int64_t>(std::min(20.0 * std::sqrt(a), 1e9));
}

// Series representation of P(a, x), valid/fast for x < a + 1. `lg` is the
// caller-supplied ln Gamma(a), hoisted so repeated evaluations at a fixed
// shape (KS loops over a sorted sample) compute it once.
double gamma_p_series(double a, double x, double lg) {
  double term = 1.0 / a;
  double sum = term;
  double ap = a;
  const std::int64_t cap = iteration_cap(a);
  for (std::int64_t n = 0; n < cap; ++n) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::fabs(term) < std::fabs(sum) * 1e-16) {
      return sum * std::exp(-x + a * std::log(x) - lg);
    }
  }
  throw hpcfail::NumericError("incomplete gamma series did not converge");
}

// Continued-fraction representation of Q(a, x) (modified Lentz), for
// x >= a + 1.
double gamma_q_cont_fraction(double a, double x, double lg) {
  constexpr double kTiny = 1e-300;
  double b = x + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double h = d;
  const std::int64_t cap = iteration_cap(a);
  for (std::int64_t i = 1; i <= cap; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::fabs(d) < kTiny) d = kTiny;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::fabs(delta - 1.0) < 1e-16) {
      return h * std::exp(-x + a * std::log(x) - lg);
    }
  }
  throw hpcfail::NumericError(
      "incomplete gamma continued fraction did not converge");
}

}  // namespace

double reg_gamma_lower(double a, double x) {
  HPCFAIL_EXPECTS(a > 0.0, "reg_gamma_lower requires a > 0");
  HPCFAIL_EXPECTS(x >= 0.0, "reg_gamma_lower requires x >= 0");
  if (x == 0.0) return 0.0;
  const double lg = log_gamma_unchecked(a);
  if (x < a + 1.0) return gamma_p_series(a, x, lg);
  return 1.0 - gamma_q_cont_fraction(a, x, lg);
}

double reg_gamma_lower_cached(double a, double x, double log_gamma_a) {
  HPCFAIL_EXPECTS(a > 0.0, "reg_gamma_lower requires a > 0");
  HPCFAIL_EXPECTS(x >= 0.0, "reg_gamma_lower requires x >= 0");
  if (x == 0.0) return 0.0;
  if (x < a + 1.0) return gamma_p_series(a, x, log_gamma_a);
  return 1.0 - gamma_q_cont_fraction(a, x, log_gamma_a);
}

double reg_gamma_upper(double a, double x) {
  HPCFAIL_EXPECTS(a > 0.0, "reg_gamma_upper requires a > 0");
  HPCFAIL_EXPECTS(x >= 0.0, "reg_gamma_upper requires x >= 0");
  if (x == 0.0) return 1.0;
  const double lg = log_gamma_unchecked(a);
  if (x < a + 1.0) return 1.0 - gamma_p_series(a, x, lg);
  return gamma_q_cont_fraction(a, x, lg);
}

double normal_cdf(double z) noexcept {
  return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double normal_quantile(double p) {
  HPCFAIL_EXPECTS(p > 0.0 && p < 1.0, "normal_quantile requires p in (0,1)");
  // Acklam's rational approximation.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  double x;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  } else if (p <= 1.0 - p_low) {
    const double q = p - 0.5;
    const double r = q * q;
    x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) *
        q /
        (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
  } else {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) /
        ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  // One Halley refinement step against the exact CDF.
  const double e = normal_cdf(x) - p;
  const double u = e * std::sqrt(2.0 * 3.14159265358979323846) *
                   std::exp(0.5 * x * x);
  x -= u / (1.0 + 0.5 * x * u);
  return x;
}

double log_gamma(double x) {
  HPCFAIL_EXPECTS(x > 0.0, "log_gamma requires x > 0");
  return log_gamma_unchecked(x);
}

#if defined(__GLIBC__) || defined(__APPLE__) || defined(__FreeBSD__)
// Strict -std=c++20 hides the POSIX declaration; the symbol is always in
// libm on these platforms.
extern "C" double lgamma_r(double, int*);
#endif

double log_gamma_unchecked(double x) noexcept {
#if defined(__GLIBC__) || defined(__APPLE__) || defined(__FreeBSD__)
  // std::lgamma writes the process-global `signgam`, which is a data
  // race when MLE fits and trace generation run on the worker pool.
  // lgamma_r is the same implementation with the sign returned through
  // an out-parameter, so values are identical and the call is
  // thread-safe.
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  return std::lgamma(x);
#endif
}

double kolmogorov_q(double lambda) noexcept {
  if (lambda <= 0.0) return 1.0;
  double sum = 0.0;
  double sign = 1.0;
  for (int j = 1; j <= 100; ++j) {
    const double term = std::exp(-2.0 * j * j * lambda * lambda);
    sum += sign * term;
    if (term < 1e-12) break;
    sign = -sign;
  }
  const double q = 2.0 * sum;
  if (q < 0.0) return 0.0;
  if (q > 1.0) return 1.0;
  return q;
}

}  // namespace hpcfail::stats
