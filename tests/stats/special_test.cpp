#include "stats/special.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace hpcfail::stats {
namespace {

constexpr double kEulerMascheroni = 0.57721566490153286;

TEST(Digamma, KnownValues) {
  // psi(1) = -gamma, psi(2) = 1 - gamma, psi(1/2) = -gamma - 2 ln 2.
  EXPECT_NEAR(digamma(1.0), -kEulerMascheroni, 1e-12);
  EXPECT_NEAR(digamma(2.0), 1.0 - kEulerMascheroni, 1e-12);
  EXPECT_NEAR(digamma(0.5), -kEulerMascheroni - 2.0 * std::log(2.0), 1e-12);
  EXPECT_NEAR(digamma(10.0), 2.2517525890667211, 1e-12);
}

TEST(Digamma, RecurrenceHolds) {
  // psi(x+1) = psi(x) + 1/x across scales.
  for (const double x : {0.1, 0.7, 1.3, 4.9, 17.0, 123.4}) {
    EXPECT_NEAR(digamma(x + 1.0), digamma(x) + 1.0 / x, 1e-11)
        << "x = " << x;
  }
}

TEST(Digamma, RejectsNonPositive) {
  EXPECT_THROW(digamma(0.0), InvalidArgument);
  EXPECT_THROW(digamma(-1.0), InvalidArgument);
}

TEST(Trigamma, KnownValues) {
  // psi'(1) = pi^2/6, psi'(1/2) = pi^2/2.
  const double pi2 = 3.14159265358979323846 * 3.14159265358979323846;
  EXPECT_NEAR(trigamma(1.0), pi2 / 6.0, 1e-11);
  EXPECT_NEAR(trigamma(0.5), pi2 / 2.0, 1e-10);
}

TEST(Trigamma, RecurrenceHolds) {
  for (const double x : {0.2, 1.1, 3.3, 25.0}) {
    EXPECT_NEAR(trigamma(x + 1.0), trigamma(x) - 1.0 / (x * x), 1e-10)
        << "x = " << x;
  }
}

TEST(Trigamma, IsDerivativeOfDigamma) {
  for (const double x : {0.8, 2.5, 9.0}) {
    const double h = 1e-6;
    const double numeric = (digamma(x + h) - digamma(x - h)) / (2.0 * h);
    EXPECT_NEAR(trigamma(x), numeric, 1e-6) << "x = " << x;
  }
}

TEST(RegGammaLower, BoundaryValues) {
  EXPECT_DOUBLE_EQ(reg_gamma_lower(2.5, 0.0), 0.0);
  EXPECT_NEAR(reg_gamma_lower(1.0, 1e3), 1.0, 1e-12);
}

TEST(RegGammaLower, MatchesExponentialForShapeOne) {
  // P(1, x) = 1 - e^{-x}.
  for (const double x : {0.1, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    EXPECT_NEAR(reg_gamma_lower(1.0, x), 1.0 - std::exp(-x), 1e-12);
  }
}

TEST(RegGammaLower, KnownValues) {
  // Reference values (scipy.special.gammainc).
  EXPECT_NEAR(reg_gamma_lower(0.5, 0.5), 0.6826894921370859, 1e-10);
  EXPECT_NEAR(reg_gamma_lower(3.0, 2.0), 0.3233235838169365, 1e-10);
  EXPECT_NEAR(reg_gamma_lower(10.0, 12.0), 0.7576078383294877, 1e-10);
}

TEST(RegGammaUpperLower, SumToOne) {
  for (const double a : {0.3, 1.0, 2.7, 15.0}) {
    for (const double x : {0.01, 0.5, 2.0, 30.0}) {
      EXPECT_NEAR(reg_gamma_lower(a, x) + reg_gamma_upper(a, x), 1.0, 1e-12)
          << "a = " << a << " x = " << x;
    }
  }
}

TEST(RegGammaUpperLower, ConvergesForLargeShapesNearTheMode) {
  // Near x ~ a the series and the continued fraction need ~9 sqrt(a)
  // terms; a fixed 500-term cap threw NumericError from a ~ 3000 on
  // (Poisson CDFs of nodes with thousands of failures).
  constexpr double kPi = 3.14159265358979323846;
  for (const double a : {1e3, 1e4, 1e6}) {
    for (const double k : {-3.0, 0.0, 3.0}) {
      const double x = a + k * std::sqrt(a);
      EXPECT_NEAR(reg_gamma_lower(a, x) + reg_gamma_upper(a, x), 1.0, 1e-12)
          << "a = " << a << " x = " << x;
    }
    // Large-a asymptotic: Q(a, a) = 1/2 - 1/(3 sqrt(2 pi a)) + O(a^-3/2).
    EXPECT_NEAR(reg_gamma_upper(a, a),
                0.5 - 1.0 / (3.0 * std::sqrt(2.0 * kPi * a)), 1e-7)
        << "a = " << a;
    // The series (x < a + 1) and the continued fraction (x >= a + 1)
    // meet continuously.
    EXPECT_NEAR(reg_gamma_upper(a, std::nextafter(a + 1.0, 0.0)),
                reg_gamma_upper(a, a + 1.0), 1e-9)
        << "a = " << a;
  }
}

TEST(RegGammaLower, RejectsBadDomain) {
  EXPECT_THROW(reg_gamma_lower(0.0, 1.0), InvalidArgument);
  EXPECT_THROW(reg_gamma_lower(1.0, -1.0), InvalidArgument);
}

TEST(NormalCdf, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(normal_cdf(1.0), 0.8413447460685429, 1e-12);
  EXPECT_NEAR(normal_cdf(-1.96), 0.024997895148220435, 1e-12);
  EXPECT_NEAR(normal_cdf(6.0), 1.0 - 9.865876450376946e-10, 1e-15);
}

TEST(NormalQuantile, InvertsCdf) {
  for (const double p : {1e-6, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-6}) {
    EXPECT_NEAR(normal_cdf(normal_quantile(p)), p, 1e-12) << "p = " << p;
  }
}

TEST(NormalQuantile, KnownValues) {
  EXPECT_NEAR(normal_quantile(0.5), 0.0, 1e-12);
  EXPECT_NEAR(normal_quantile(0.975), 1.959963984540054, 1e-9);
  EXPECT_NEAR(normal_quantile(0.84134474606854293), 1.0, 1e-9);
}

TEST(NormalQuantile, RejectsBoundary) {
  EXPECT_THROW(normal_quantile(0.0), InvalidArgument);
  EXPECT_THROW(normal_quantile(1.0), InvalidArgument);
  EXPECT_THROW(normal_quantile(-0.1), InvalidArgument);
}

TEST(LogGamma, MatchesFactorials) {
  EXPECT_NEAR(log_gamma(5.0), std::log(24.0), 1e-12);
  EXPECT_NEAR(log_gamma(1.0), 0.0, 1e-15);
  EXPECT_THROW(log_gamma(0.0), InvalidArgument);
}

TEST(KolmogorovQ, LimitsAndMonotonicity) {
  EXPECT_DOUBLE_EQ(kolmogorov_q(0.0), 1.0);
  EXPECT_NEAR(kolmogorov_q(10.0), 0.0, 1e-12);
  // Known reference: Q(1.0) ~ 0.26999967.
  EXPECT_NEAR(kolmogorov_q(1.0), 0.26999967, 1e-6);
  double prev = 1.0;
  for (double lambda = 0.1; lambda < 3.0; lambda += 0.1) {
    const double q = kolmogorov_q(lambda);
    EXPECT_LE(q, prev + 1e-12);
    prev = q;
  }
}

}  // namespace
}  // namespace hpcfail::stats
