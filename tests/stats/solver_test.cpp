#include "stats/solver.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"

namespace hpcfail::stats {
namespace {

// newton_bracketed over f and its derivative df, on [lo, hi] as given.
template <typename F, typename DF>
double newton(const F& f, const DF& df, double lo, double hi) {
  return newton_bracketed(
      [&](double x, double& slope) {
        slope = df(x);
        return f(x);
      },
      lo, hi, f(lo), f(hi));
}

template <typename F>
double brent_on(const F& f, double lo, double hi) {
  return brent(f, lo, hi, f(lo), f(hi));
}

TEST(NewtonBracketed, ConvergesQuadratically) {
  const auto f = [](double x) { return std::exp(x) - 5.0; };
  const auto df = [](double x) { return std::exp(x); };
  EXPECT_NEAR(newton(f, df, 0.0, 10.0), std::log(5.0), 1e-12);
}

TEST(NewtonBracketed, SurvivesFlatDerivative) {
  // Derivative vanishes at the left end; safeguard must bisect.
  const auto f = [](double x) { return x * x * x - 8.0; };
  const auto df = [](double x) { return 3.0 * x * x; };
  EXPECT_NEAR(newton(f, df, -1.0, 5.0), 2.0, 1e-10);
}

TEST(NewtonBracketed, MisleadingDerivativeStillConverges) {
  // A wrong (constant) derivative forces the bisection fallback.
  const auto f = [](double x) { return std::tanh(x) - 0.5; };
  const auto df = [](double) { return 1e-9; };
  EXPECT_NEAR(newton(f, df, -5.0, 5.0), std::atanh(0.5), 1e-9);
}

TEST(NewtonBracketed, ExactEndpointRoot) {
  const auto f = [](double x) { return x - 1.0; };
  const auto df = [](double) { return 1.0; };
  EXPECT_EQ(newton(f, df, 1.0, 2.0), 1.0);
  EXPECT_EQ(newton(f, df, 0.0, 1.0), 1.0);
}

TEST(NewtonBracketed, RejectsReversedInterval) {
  const auto f = [](double x) { return x; };
  const auto df = [](double) { return 1.0; };
  EXPECT_THROW(newton(f, df, 1.0, -1.0), InvalidArgument);
}

TEST(NewtonBracketed, RejectsNonBracketingEndpointValues) {
  const auto f = [](double x) { return x * x + 1.0; };
  const auto df = [](double x) { return 2.0 * x; };
  EXPECT_THROW(newton(f, df, -1.0, 1.0), InvalidArgument);
}

TEST(NewtonBracketed, TakesTheEndpointValuesFromTheCaller) {
  // The endpoints' values come from expand_bracket; the solver spends
  // every evaluation on an interior iterate.
  int calls = 0;
  const auto f = [](double x) { return x * x - 2.0; };
  double lo = 1.0;
  double hi = 2.0;
  const double root = newton_bracketed(
      [&](double x, double& slope) {
        ++calls;
        EXPECT_GT(x, lo);
        EXPECT_LT(x, hi);
        slope = 2.0 * x;
        return f(x);
      },
      lo, hi, f(lo), f(hi));
  EXPECT_NEAR(root, std::sqrt(2.0), 1e-12);
  EXPECT_GT(calls, 0);
}

TEST(Brent, FindsRootOfOscillatoryFunction) {
  const auto f = [](double x) { return std::cos(x) - x; };
  EXPECT_NEAR(brent_on(f, 0.0, 1.0), 0.7390851332151607, 1e-10);
}

TEST(Brent, HandlesSteepFunction) {
  const auto f = [](double x) { return std::expm1(50.0 * (x - 0.3)); };
  EXPECT_NEAR(brent_on(f, 0.0, 1.0), 0.3, 1e-9);
}

TEST(Brent, RejectsNonBracketingInterval) {
  const auto f = [](double x) { return x * x + 0.5; };
  EXPECT_THROW(brent_on(f, -1.0, 1.0), InvalidArgument);
}

TEST(ExpandBracket, GrowsUntilSignChange) {
  const auto f = [](double x) { return x - 100.0; };
  double lo = 1.0;
  double hi = 2.0;
  double f_lo = 0.0;
  double f_hi = 0.0;
  expand_bracket(f, lo, hi, f_lo, f_hi);
  EXPECT_LE(lo, 100.0);
  EXPECT_GE(hi, 100.0);
  EXPECT_LE(f(lo) * f(hi), 0.0);
}

TEST(ExpandBracket, RespectsPositiveOnlyFloor) {
  // Root at 1e-4; expansion toward zero must stay positive.
  const auto f = [](double x) { return std::log(x / 1e-4); };
  double lo = 0.5;
  double hi = 2.0;
  double f_lo = 0.0;
  double f_hi = 0.0;
  expand_bracket(f, lo, hi, f_lo, f_hi, /*positive_only=*/true);
  EXPECT_GT(lo, 0.0);
  EXPECT_LE(f(lo) * f(hi), 0.0);
  EXPECT_NEAR(brent(f, lo, hi, f_lo, f_hi), 1e-4, 1e-10);
}

TEST(ExpandBracket, ThrowsWhenNoRootExists) {
  const auto f = [](double) { return 1.0; };
  double lo = 0.1;
  double hi = 1.0;
  double f_lo = 0.0;
  double f_hi = 0.0;
  EXPECT_THROW(expand_bracket(f, lo, hi, f_lo, f_hi), NumericError);
}

TEST(ExpandBracket, EndpointOverloadReturnsTheEvaluatedValues) {
  const auto f = [](double x) { return std::log(x); };
  double lo = 0.25;
  double hi = 0.5;
  double f_lo = 0.0;
  double f_hi = 0.0;
  expand_bracket(f, lo, hi, f_lo, f_hi, /*positive_only=*/true);
  EXPECT_EQ(f_lo, f(lo));
  EXPECT_EQ(f_hi, f(hi));
  EXPECT_LE(f_lo * f_hi, 0.0);
}

}  // namespace
}  // namespace hpcfail::stats
