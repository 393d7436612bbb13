#include "stats/bootstrap.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "dist/normal.hpp"
#include "dist/weibull.hpp"
#include "stats/descriptive.hpp"

namespace hpcfail::stats {
namespace {

TEST(Bootstrap, PointEstimateIsStatisticOfOriginal) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  hpcfail::Rng rng(1);
  const BootstrapResult r = bootstrap(xs, [](std::span<const double> s) {
    return mean(s);
  }, rng);
  EXPECT_DOUBLE_EQ(r.point, 3.0);
  EXPECT_LE(r.lo, r.point);
  EXPECT_GE(r.hi, r.point);
}

TEST(Bootstrap, IntervalCoversTrueMeanAtNominalRate) {
  // 40 independent experiments; the 95% interval should cover the true
  // mean in the vast majority of them.
  const hpcfail::dist::Normal truth(10.0, 2.0);
  hpcfail::Rng data_rng(2);
  int covered = 0;
  for (int rep = 0; rep < 40; ++rep) {
    std::vector<double> xs;
    for (int i = 0; i < 100; ++i) xs.push_back(truth.sample(data_rng));
    hpcfail::Rng rng(static_cast<std::uint64_t>(rep));
    const BootstrapResult r = bootstrap(
        xs, [](std::span<const double> s) { return mean(s); }, rng,
        {.replicates = 400, .confidence = 0.95});
    if (r.lo <= 10.0 && 10.0 <= r.hi) ++covered;
  }
  EXPECT_GE(covered, 33);  // ~95% nominal, wide slack for 40 trials
}

TEST(Bootstrap, IntervalWidthShrinksWithSampleSize) {
  const hpcfail::dist::Normal truth(0.0, 1.0);
  hpcfail::Rng data_rng(3);
  std::vector<double> small;
  std::vector<double> large;
  for (int i = 0; i < 2000; ++i) {
    const double x = truth.sample(data_rng);
    if (i < 50) small.push_back(x);
    large.push_back(x);
  }
  hpcfail::Rng r1(4);
  hpcfail::Rng r2(4);
  const auto stat = [](std::span<const double> s) { return mean(s); };
  const BootstrapResult a = bootstrap(small, stat, r1);
  const BootstrapResult b = bootstrap(large, stat, r2);
  EXPECT_LT(b.hi - b.lo, a.hi - a.lo);
  EXPECT_LT(b.std_error, a.std_error);
}

TEST(Bootstrap, WorksForFittedWeibullShape) {
  // The use case EXPERIMENTS.md needs: an interval around the fitted
  // shape parameter that contains the truth.
  const hpcfail::dist::Weibull truth(0.75, 3600.0);
  hpcfail::Rng data_rng(5);
  std::vector<double> xs;
  for (int i = 0; i < 1500; ++i) xs.push_back(truth.sample(data_rng));
  hpcfail::Rng rng(6);
  const BootstrapResult r = bootstrap(
      xs,
      [](std::span<const double> s) {
        return hpcfail::dist::Weibull::fit_mle(s).shape();
      },
      rng, {.replicates = 200, .confidence = 0.95});
  EXPECT_LE(r.lo, 0.75);
  EXPECT_GE(r.hi, 0.75);
  EXPECT_GT(r.lo, 0.5);
  EXPECT_LT(r.hi, 1.0);
}

TEST(Bootstrap, SkipsFailingReplicatesButTracksCount) {
  // A statistic that throws for ~half the resamples (when the resample
  // happens to contain only the value 1.0).
  const std::vector<double> xs = {1.0, 2.0};
  hpcfail::Rng rng(7);
  const BootstrapResult r = bootstrap(
      xs,
      [](std::span<const double> s) {
        double v = variance(s);
        if (v == 0.0) throw NumericError("degenerate");
        return v;
      },
      rng, {.replicates = 200, .confidence = 0.9});
  EXPECT_GT(r.replicates, 50u);
  EXPECT_LT(r.replicates, 200u);
}

TEST(Bootstrap, ThrowsWhenStatisticAlwaysFails) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  hpcfail::Rng rng(8);
  EXPECT_THROW(bootstrap(xs,
                         [](std::span<const double>) -> double {
                           throw NumericError("never works");
                         },
                         rng),
               NumericError);
}

TEST(Bootstrap, ValidatesArguments) {
  hpcfail::Rng rng(9);
  const auto stat = [](std::span<const double> s) { return mean(s); };
  EXPECT_THROW(bootstrap(std::vector<double>{}, stat, rng),
               InvalidArgument);
  const std::vector<double> xs = {1.0, 2.0};
  EXPECT_THROW(bootstrap(xs, stat, rng, {.replicates = 5}),
               InvalidArgument);
  EXPECT_THROW(
      bootstrap(xs, stat, rng, {.replicates = 100, .confidence = 1.5}),
      InvalidArgument);
}

TEST(Bootstrap, DeterministicGivenRngState) {
  const std::vector<double> xs = {5.0, 1.0, 4.0, 2.0, 8.0};
  hpcfail::Rng r1(10);
  hpcfail::Rng r2(10);
  const auto stat = [](std::span<const double> s) { return median(s); };
  const BootstrapResult a = bootstrap(xs, stat, r1);
  const BootstrapResult b = bootstrap(xs, stat, r2);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
}

/// What one bootstrap call produced: every result field's bits, or the
/// message of the NumericError it threw, plus the Rng's next draws.
struct Outcome {
  std::optional<std::vector<std::uint64_t>> bits;
  std::string error;
  std::vector<std::uint64_t> rng_after;
  bool operator==(const Outcome&) const = default;
};

template <typename Call>
Outcome outcome_of(std::uint64_t seed, Call&& call) {
  hpcfail::Rng rng(seed);
  Outcome out;
  try {
    const BootstrapResult r = call(rng);
    out.bits = std::vector<std::uint64_t>{
        std::bit_cast<std::uint64_t>(r.point),
        std::bit_cast<std::uint64_t>(r.lo), std::bit_cast<std::uint64_t>(r.hi),
        std::bit_cast<std::uint64_t>(r.std_error), r.replicates};
  } catch (const NumericError& e) {
    out.error = e.what();
  }
  for (int i = 0; i < 4; ++i) out.rng_after.push_back(rng.next_u64());
  return out;
}

// The reference bootstrap_mean must match: the generic bootstrap with a
// left-to-right sum divided by the count.
double plain_mean(std::span<const double> xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

TEST(BootstrapMean, EqualsTheGenericFormWithAPlainSumMean) {
  std::vector<double> mixed;
  hpcfail::Rng data_rng(11);
  for (int i = 0; i < 257; ++i) {
    const double x = hpcfail::dist::Normal(0.0, 1e3).sample(data_rng);
    mixed.push_back(i % 7 == 0 ? x * 1e-9 : x);
  }
  // Near 1e308: some resample sums overflow and are skipped.
  const std::vector<double> near_overflow = {1e308,  -1.7e308, 1.5e308,
                                             0.5,    -1e308,   1.2e308};
  const std::vector<std::vector<double>> samples = {
      {42.5},                                  // one element
      std::vector<double>(64, 7.25),           // a constant sample
      {1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0},     // ties
      {-3.5, 2.25, -1e-3, 4e5, -4e5, 0.1, -0.0, 17.0},  // mixed signs
      mixed,
      near_overflow,
      // Every resample sum overflows: both forms throw NumericError.
      {1.7e308, 1.6e308, 1.5e308},
  };
  std::size_t threw = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    for (const std::size_t replicates : {10u, 1000u}) {
      for (const double confidence : {0.5, 0.95}) {
        const BootstrapOptions options{.replicates = replicates,
                                       .confidence = confidence};
        const std::uint64_t seed = 100 + i;
        const Outcome fused = outcome_of(seed, [&](hpcfail::Rng& rng) {
          return bootstrap_mean(samples[i], rng, options);
        });
        const Outcome generic = outcome_of(seed, [&](hpcfail::Rng& rng) {
          return bootstrap(samples[i], plain_mean, rng, options);
        });
        EXPECT_TRUE(fused == generic)
            << "sample " << i << ", " << replicates << " replicates, "
            << "confidence " << confidence;
        if (!fused.bits) ++threw;
      }
    }
  }
  // Only the all-overflow sample fails, at each of its four settings.
  EXPECT_EQ(threw, 4u);
  hpcfail::Rng rng(13);
  const BootstrapResult r = bootstrap_mean(near_overflow, rng);
  EXPECT_GT(r.replicates, 100u);
  EXPECT_LT(r.replicates, 1000u);
}

/// The message of the InvalidArgument `call` throws, or "" if none.
template <typename Call>
std::string invalid_argument_of(Call&& call) {
  try {
    call();
  } catch (const InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(BootstrapMean, ValidatesArgumentsAsTheGenericFormDoes) {
  hpcfail::Rng rng(12);
  const std::vector<double> empty;
  const std::vector<double> xs = {1.0, 2.0};
  for (const auto& [sample, options] :
       {std::pair{empty, BootstrapOptions{}},
        std::pair{xs, BootstrapOptions{.replicates = 5}},
        std::pair{xs, BootstrapOptions{.replicates = 100, .confidence = 0.0}},
        std::pair{xs, BootstrapOptions{.replicates = 100, .confidence = 1.0}},
        std::pair{xs,
                  BootstrapOptions{.replicates = 100, .confidence = 1.5}}}) {
    const std::string fused = invalid_argument_of(
        [&] { return bootstrap_mean(sample, rng, options); });
    const std::string generic = invalid_argument_of(
        [&] { return bootstrap(sample, plain_mean, rng, options); });
    EXPECT_NE(fused, "");
    EXPECT_EQ(fused, generic);
  }
}

}  // namespace
}  // namespace hpcfail::stats
