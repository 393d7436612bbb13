#include "dist/gamma.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace hpcfail::dist {
namespace {

TEST(GammaDist, Moments) {
  const GammaDist d(3.0, 2.0);
  EXPECT_DOUBLE_EQ(d.mean(), 6.0);
  EXPECT_DOUBLE_EQ(d.variance(), 12.0);
  EXPECT_NEAR(d.cv_squared(), 1.0 / 3.0, 1e-12);
}

TEST(GammaDist, ReducesToExponentialAtShapeOne) {
  const GammaDist g(1.0, 4.0);
  EXPECT_NEAR(g.cdf(4.0), 1.0 - std::exp(-1.0), 1e-12);
  EXPECT_NEAR(g.pdf(0.5), std::exp(-0.125) / 4.0, 1e-12);
}

TEST(GammaDist, ErlangCdfKnownValue) {
  // Erlang(2, 1): F(x) = 1 - e^{-x}(1 + x).
  const GammaDist g(2.0, 1.0);
  for (const double x : {0.5, 1.0, 3.0}) {
    EXPECT_NEAR(g.cdf(x), 1.0 - std::exp(-x) * (1.0 + x), 1e-12);
  }
}

TEST(GammaDist, QuantileInvertsCdf) {
  const GammaDist g(0.8, 1800.0);
  for (const double p : {0.01, 0.3, 0.5, 0.7, 0.99}) {
    EXPECT_NEAR(g.cdf(g.quantile(p)), p, 1e-10) << "p = " << p;
  }
}

TEST(GammaDist, QuantileBelowTheBracketFloorIsFiniteAndInvertsCdf) {
  // Shapes of system 20's gap fit (0.076) and of a repair-time fit (0.4);
  // most of these quantiles lie below the 1e-12 the x-space bracket stops
  // at and are solved in log x, where the residual is relative. Above
  // 1e-12 the x-space solve keeps Brent's absolute tolerance, which leaves
  // a quantile near 1e-10 about 4 digits (ROADMAP item 3): that bound is
  // pinned here at its current width.
  for (const double shape : {0.076, 0.4}) {
    for (const double scale : {1.0, 768.83, 601782.34}) {
      const GammaDist g(shape, scale);
      for (const double p : {1e-300, 1e-6, 1e-3}) {
        SCOPED_TRACE("shape " + std::to_string(shape) + " scale " +
                     std::to_string(scale) + " p " + std::to_string(p));
        const double q = g.quantile(p);
        EXPECT_TRUE(std::isfinite(q)) << q;
        EXPECT_GE(q, 0.0);
        if (std::isnormal(q)) {
          EXPECT_NEAR(g.cdf(q) / p, 1.0, q < 1e-12 ? 1e-9 : 1e-3) << q;
        }
      }
    }
  }
}

TEST(GammaDist, SampleMomentsMatch) {
  hpcfail::Rng rng(3);
  for (const double shape : {0.5, 1.0, 4.0}) {
    const GammaDist g(shape, 2.0);
    double sum = 0.0;
    double sum_sq = 0.0;
    constexpr int kDraws = 100000;
    for (int i = 0; i < kDraws; ++i) {
      const double x = g.sample(rng);
      sum += x;
      sum_sq += x * x;
    }
    const double mean = sum / kDraws;
    const double var = sum_sq / kDraws - mean * mean;
    EXPECT_NEAR(mean / g.mean(), 1.0, 0.03) << "shape = " << shape;
    EXPECT_NEAR(var / g.variance(), 1.0, 0.08) << "shape = " << shape;
  }
}

TEST(GammaDist, FitRecoversParameters) {
  const GammaDist truth(0.65, 5000.0);
  hpcfail::Rng rng(29);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(truth.sample(rng));
  const GammaDist fit = GammaDist::fit_mle(xs);
  EXPECT_NEAR(fit.shape(), truth.shape(), 0.03);
  EXPECT_NEAR(fit.mean() / truth.mean(), 1.0, 0.05);
}

TEST(GammaDist, FitRecoversLargeShape) {
  const GammaDist truth(20.0, 1.0);
  hpcfail::Rng rng(31);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(truth.sample(rng));
  const GammaDist fit = GammaDist::fit_mle(xs);
  EXPECT_NEAR(fit.shape() / truth.shape(), 1.0, 0.06);
}

TEST(GammaDist, FitRejectsDegenerateSamples) {
  EXPECT_THROW(GammaDist::fit_mle(std::vector<double>{1.0}),
               hpcfail::InvalidArgument);
  EXPECT_THROW(GammaDist::fit_mle(std::vector<double>{3.0, 3.0}),
               hpcfail::FitError);
  EXPECT_THROW(GammaDist::fit_mle(std::vector<double>{1.0, -0.5}),
               hpcfail::InvalidArgument);
}

TEST(GammaDist, RejectsBadParameters) {
  EXPECT_THROW(GammaDist(0.0, 1.0), hpcfail::InvalidArgument);
  EXPECT_THROW(GammaDist(1.0, -2.0), hpcfail::InvalidArgument);
}

TEST(GammaDist, HazardDecreasesForShapeBelowOne) {
  const GammaDist g(0.7, 1000.0);
  EXPECT_GT(g.hazard(10.0), g.hazard(100.0));
  EXPECT_GT(g.hazard(100.0), g.hazard(1000.0));
}

}  // namespace
}  // namespace hpcfail::dist
