#include "stats/descriptive.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace hpcfail::stats {
namespace {

TEST(Mean, SimpleValues) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
}

TEST(Mean, SingleValue) {
  const std::vector<double> xs = {7.0};
  EXPECT_DOUBLE_EQ(mean(xs), 7.0);
}

TEST(Mean, RejectsEmpty) {
  EXPECT_THROW(mean(std::vector<double>{}), InvalidArgument);
}

TEST(Variance, UnbiasedEstimator) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Known example: population variance 4, sample variance 32/7.
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
}

TEST(Variance, ZeroForSingleValue) {
  const std::vector<double> xs = {3.0};
  EXPECT_DOUBLE_EQ(variance(xs), 0.0);
}

TEST(CvSquared, MatchesDefinition) {
  const std::vector<double> xs = {1.0, 3.0};
  // mean 2, sample var 2 => C^2 = 0.5.
  EXPECT_DOUBLE_EQ(cv_squared(xs), 0.5);
}

TEST(CvSquared, ExponentialLikeSampleNearOne) {
  // Deterministic exponential quantile sample: C^2 -> 1.
  std::vector<double> xs;
  for (int i = 1; i <= 2000; ++i) {
    xs.push_back(-std::log(1.0 - static_cast<double>(i) / 2001.0));
  }
  EXPECT_NEAR(cv_squared(xs), 1.0, 0.05);
}

TEST(CvSquared, ZeroMeanIsNaN) {
  // C^2 is undefined at zero mean; both entry points must agree on NaN
  // rather than one throwing and the other silently reporting 0.
  const std::vector<double> xs = {-1.0, 1.0};
  EXPECT_TRUE(std::isnan(cv_squared(xs)));
  EXPECT_TRUE(std::isnan(summarize(xs).cv2));
}

TEST(QuantileSorted, InterpolatesLinearly) {
  const std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 0.5), 25.0);
  EXPECT_DOUBLE_EQ(quantile_sorted(xs, 1.0 / 3.0), 20.0);
}

TEST(QuantileSorted, RejectsBadInput) {
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(quantile_sorted(std::vector<double>{}, 0.5), InvalidArgument);
  EXPECT_THROW(quantile_sorted(xs, -0.1), InvalidArgument);
  EXPECT_THROW(quantile_sorted(xs, 1.1), InvalidArgument);
}

TEST(Median, OddAndEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Summarize, AllFieldsConsistent) {
  const std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(s.variance, 2.5);
  EXPECT_DOUBLE_EQ(s.stddev, std::sqrt(2.5));
  EXPECT_DOUBLE_EQ(s.cv2, 2.5 / 9.0);
  EXPECT_DOUBLE_EQ(s.q25, 2.0);
  EXPECT_DOUBLE_EQ(s.q75, 4.0);
  EXPECT_NEAR(s.skewness, 0.0, 1e-12);  // symmetric sample
}

TEST(Summarize, SkewnessSignTracksAsymmetry) {
  const std::vector<double> right = {1.0, 1.0, 1.0, 1.0, 100.0};
  EXPECT_GT(summarize(right).skewness, 1.0);
  const std::vector<double> left = {-100.0, 1.0, 1.0, 1.0, 1.0};
  EXPECT_LT(summarize(left).skewness, -1.0);
}

TEST(SortedCopy, DoesNotMutateInput) {
  const std::vector<double> xs = {3.0, 1.0, 2.0};
  const auto sorted = sorted_copy(xs);
  EXPECT_EQ(sorted, (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(xs, (std::vector<double>{3.0, 1.0, 2.0}));
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Samples where a sorted copy could plausibly change a bit: ties, exact
// zeros, one element, a constant sample, a zero mean and values near
// 1e300 whose squared deviations overflow.
std::vector<std::vector<double>> edge_samples() {
  return {
      {3.0, 1.0, 2.0, 1.0, 3.0, 3.0, 2.0},
      {0.0, 4e-10, 0.0, 2.0, 0.5, 0.0, 1e-9},
      {42.5},
      {7.25, 7.25, 7.25, 7.25, 7.25},
      {-1.0, 1.0, -3.0, 3.0},
      {1e300, 3e299, 9.5e299, 1.7e300, 2e300, 1e300},
  };
}

TEST(SummarizeSorted, EqualsTheOneArgumentFormBitForBit) {
  for (const std::vector<double>& xs : edge_samples()) {
    SCOPED_TRACE("n = " + std::to_string(xs.size()) + ", first " +
                 std::to_string(xs.front()));
    const Summary want = summarize(xs);
    const Summary got = summarize(xs, sorted_copy(xs));
    EXPECT_EQ(got.n, want.n);
    for (const auto field :
         {&Summary::mean, &Summary::median, &Summary::variance,
          &Summary::stddev, &Summary::cv2, &Summary::min, &Summary::max,
          &Summary::q25, &Summary::q75, &Summary::skewness}) {
      EXPECT_EQ(bits(got.*field), bits(want.*field));
    }
  }
}

TEST(SummarizeSorted, RejectsAMismatchedSortedCopy) {
  const std::vector<double> xs = {3.0, 1.0, 2.0};
  EXPECT_THROW(summarize(xs, std::vector<double>{3.0, 1.0, 2.0}),
               InvalidArgument);
  EXPECT_THROW(summarize(xs, std::vector<double>{1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(summarize(xs, std::vector<double>{1.0, 2.0, 3.0, 4.0}),
               InvalidArgument);
  EXPECT_THROW(summarize(std::vector<double>{}, std::vector<double>{}),
               InvalidArgument);
}

}  // namespace
}  // namespace hpcfail::stats
