#include "stats/descriptive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/radix.hpp"
#include "common/rng.hpp"
#include "testkit/property.hpp"

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

std::vector<std::uint64_t> all_bits(const std::vector<double>& xs) {
  std::vector<std::uint64_t> out;
  out.reserve(xs.size());
  for (const double x : xs) out.push_back(bits(x));
  return out;
}

std::vector<double> std_sorted(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs;
}

// Samples around the radix cutoff and larger ones whose values stress
// the order key: repeats, +0.0, negatives, +-inf, subnormals and
// magnitudes from 1e-300 to 1e300.
testkit::Gen<std::vector<double>> keyed_samples() {
  testkit::Gen<std::vector<double>> gen;
  gen.sample = [](Rng& rng) {
    const std::size_t sizes[] = {
        kRadixSortMinSize - 2,   kRadixSortMinSize - 1,
        kRadixSortMinSize,       kRadixSortMinSize + 1,
        3 * kRadixSortMinSize,   10 * kRadixSortMinSize,
        35 * kRadixSortMinSize,  35 * kRadixSortMinSize + 5};
    const std::size_t n = sizes[rng.uniform_index(std::size(sizes))];
    const double inf = std::numeric_limits<double>::infinity();
    const double tiny = std::numeric_limits<double>::denorm_min();
    std::vector<double> xs;
    xs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double u = rng.uniform();
      const double sign = rng.uniform() < 0.4 ? -1.0 : 1.0;
      if (u < 0.1) {
        xs.push_back(0.0);
      } else if (u < 0.13) {
        xs.push_back(sign * inf);
      } else if (u < 0.23) {
        const auto k = static_cast<double>(rng.uniform_index(1 << 20));
        xs.push_back(sign * tiny * k);
      } else if (u < 0.43 && !xs.empty()) {
        xs.push_back(xs[rng.uniform_index(xs.size())]);
      } else if (u < 0.63) {
        xs.push_back(std::floor(rng.uniform() * 1e6));
      } else {
        xs.push_back(sign * std::pow(10.0, rng.uniform() * 600.0 - 300.0));
      }
    }
    return xs;
  };
  return gen;
}

TEST(SortInPlace, GivesStdSortsSequenceBitForBit) {
  testkit::PropertyOptions options;
  options.cases = 120;
  const auto result = testkit::Property<std::vector<double>>(
      "sorted_copy and sort_in_place equal std::sort", keyed_samples(),
      [](const std::vector<double>& xs) {
        const std::vector<std::uint64_t> want = all_bits(std_sorted(xs));
        std::vector<double> in_place = xs;
        sort_in_place(in_place);
        return all_bits(sorted_copy(xs)) == want &&
               all_bits(in_place) == want;
      }).check(options);
  EXPECT_TRUE(result.passed) << result.message;
}

TEST(SortInPlace, SamplesWithNanOrNegativeZeroTakeStdSort) {
  // Keyed, every -0.0 would sort before every +0.0 and a NaN after +inf;
  // std::sort leaves ties and NaN where its partitions put them, and
  // these samples get exactly that.
  Rng rng(29);
  std::vector<double> zeros(3 * kRadixSortMinSize);
  for (double& x : zeros) {
    x = rng.uniform() < 0.5 ? 0.0 : std::floor(rng.uniform() * 100.0);
  }
  for (std::size_t i = 1; i < zeros.size(); i += 97) zeros[i] = -0.0;
  const std::vector<double> by_std = std_sorted(zeros);
  ASSERT_TRUE(std::signbit(by_std[0]) == false ||
              std::signbit(by_std[zeros.size() / 3]))
      << "std::sort put every -0.0 first: the sample tells nothing";
  EXPECT_EQ(all_bits(sorted_copy(zeros)), all_bits(by_std));

  std::vector<double> nan = zeros;
  for (double& x : nan) x = std::abs(x);
  nan[nan.size() / 2] = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> nan_by_std = std_sorted(nan);
  ASSERT_FALSE(std::isnan(nan_by_std.back()))
      << "std::sort put the NaN last: the sample tells nothing";
  std::vector<double> got = nan;
  sort_in_place(got);
  EXPECT_EQ(all_bits(got), all_bits(nan_by_std));
}

}  // namespace
}  // namespace hpcfail::stats
