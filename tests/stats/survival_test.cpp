#include "stats/survival.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/radix.hpp"
#include "common/rng.hpp"
#include "dist/exponential.hpp"
#include "dist/weibull.hpp"

namespace hpcfail::stats {
namespace {

TEST(KaplanMeier, HandComputedExampleWithoutCensoring) {
  // Events at 1, 2, 3: S = 2/3, 1/3, 0.
  const std::vector<SurvivalObservation> sample = {
      {1.0, true}, {2.0, true}, {3.0, true}};
  const auto curve = kaplan_meier(sample);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_NEAR(curve[0].value, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(curve[1].value, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(curve[2].value, 0.0, 1e-12);
}

TEST(KaplanMeier, HandComputedExampleWithCensoring) {
  // Classic example: events at 1 and 3, censor at 2 (between them).
  // S(1) = 3/4? With 4 at risk: event at 1 -> 3/4. Censor at 2 removes
  // one. Event at 3 with 2 at risk -> 3/4 * 1/2 = 3/8.
  const std::vector<SurvivalObservation> sample = {
      {1.0, true}, {2.0, false}, {3.0, true}, {4.0, false}};
  const auto curve = kaplan_meier(sample);
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_NEAR(curve[0].value, 0.75, 1e-12);
  EXPECT_NEAR(curve[1].value, 0.375, 1e-12);
}

TEST(KaplanMeier, TiedEventsAndCensoringsAtSameTime) {
  // Two events and one censoring at t=5 among 4 subjects: events first,
  // so S(5) = (4-2)/4 = 1/2.
  const std::vector<SurvivalObservation> sample = {
      {5.0, true}, {5.0, true}, {5.0, false}, {9.0, true}};
  const auto curve = kaplan_meier(sample);
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_NEAR(curve[0].value, 0.5, 1e-12);
  EXPECT_NEAR(curve[1].value, 0.0, 1e-12);  // last subject fails
}

TEST(KaplanMeier, MatchesTrueSurvivalOnExponentialData) {
  const hpcfail::dist::Exponential truth(0.5);
  hpcfail::Rng rng(3);
  std::vector<SurvivalObservation> sample;
  for (int i = 0; i < 5000; ++i) sample.push_back({truth.sample(rng), true});
  const auto curve = kaplan_meier(sample);
  for (std::size_t i = 0; i < curve.size(); i += 500) {
    const double expected = 1.0 - truth.cdf(curve[i].time);
    EXPECT_NEAR(curve[i].value, expected, 0.03) << "t = " << curve[i].time;
  }
}

TEST(KaplanMeier, RejectsBadInput) {
  EXPECT_THROW(kaplan_meier(std::vector<SurvivalObservation>{}),
               InvalidArgument);
  EXPECT_THROW(
      kaplan_meier(std::vector<SurvivalObservation>{{-1.0, true}}),
      InvalidArgument);
  EXPECT_THROW(
      kaplan_meier(std::vector<SurvivalObservation>{{1.0, false}}),
      InvalidArgument);  // no events at all
}

TEST(NelsonAalen, HandComputedExample) {
  // Events at 1, 2, 3 among 3 subjects: H = 1/3, 1/3+1/2, +1.
  const std::vector<SurvivalObservation> sample = {
      {1.0, true}, {2.0, true}, {3.0, true}};
  const auto curve = nelson_aalen(sample);
  ASSERT_EQ(curve.size(), 3u);
  EXPECT_NEAR(curve[0].value, 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(curve[1].value, 1.0 / 3.0 + 0.5, 1e-12);
  EXPECT_NEAR(curve[2].value, 1.0 / 3.0 + 0.5 + 1.0, 1e-12);
}

TEST(NelsonAalen, IsNonDecreasing) {
  hpcfail::Rng rng(5);
  const hpcfail::dist::Weibull truth(0.7, 10.0);
  std::vector<SurvivalObservation> sample;
  for (int i = 0; i < 1000; ++i) {
    sample.push_back({truth.sample(rng), rng.bernoulli(0.8)});
  }
  const auto curve = nelson_aalen(sample);
  double prev = 0.0;
  for (const SurvivalPoint& p : curve) {
    EXPECT_GE(p.value, prev);
    prev = p.value;
  }
}

TEST(NelsonAalen, ApproximatesTrueCumulativeHazard) {
  // For Exponential(rate), H(t) = rate * t.
  const hpcfail::dist::Exponential truth(2.0);
  hpcfail::Rng rng(7);
  std::vector<SurvivalObservation> sample;
  for (int i = 0; i < 5000; ++i) sample.push_back({truth.sample(rng), true});
  const auto curve = nelson_aalen(sample);
  for (std::size_t i = 0; i < curve.size() / 2; i += 400) {
    EXPECT_NEAR(curve[i].value, 2.0 * curve[i].time,
                0.05 + 0.05 * curve[i].value)
        << "t = " << curve[i].time;
  }
}

TEST(FullyObserved, WrapsDurations) {
  const std::vector<double> times = {3.0, 1.0};
  const auto sample = fully_observed(times);
  ASSERT_EQ(sample.size(), 2u);
  EXPECT_TRUE(sample[0].observed);
  EXPECT_DOUBLE_EQ(sample[0].time, 3.0);
}

TEST(LogLogHazardSlope, RecoversWeibullShape) {
  // The slope of log H vs log t equals the Weibull shape parameter.
  hpcfail::Rng rng(11);
  for (const double shape : {0.7, 1.0, 1.6}) {
    const hpcfail::dist::Weibull truth(shape, 100.0);
    std::vector<double> times;
    for (int i = 0; i < 8000; ++i) times.push_back(truth.sample(rng));
    const auto sample = fully_observed(times);
    EXPECT_NEAR(log_log_hazard_slope(sample), shape, 0.08)
        << "shape = " << shape;
  }
}

TEST(LogLogHazardSlope, DetectsDecreasingHazardUnderCensoring) {
  hpcfail::Rng rng(13);
  const hpcfail::dist::Weibull truth(0.7, 100.0);
  std::vector<SurvivalObservation> sample;
  for (int i = 0; i < 8000; ++i) {
    const double t = truth.sample(rng);
    // Censor at a fixed horizon (like end-of-observation).
    sample.push_back(t < 400.0 ? SurvivalObservation{t, true}
                               : SurvivalObservation{400.0, false});
  }
  EXPECT_LT(log_log_hazard_slope(sample), 0.9);
}

TEST(LogLogHazardSlope, RejectsTinySamples) {
  const std::vector<SurvivalObservation> sample = {{1.0, true},
                                                   {2.0, true}};
  EXPECT_THROW(log_log_hazard_slope(sample), InvalidArgument);
}

// The estimators as they were before their sort became a radix: one
// comparator sort, events before censorings at a tied time, then the
// per-time sweep. `nelson` picks the cumulative hazard over S(t).
std::vector<SurvivalPoint> comparator_sorted_curve(
    std::vector<SurvivalObservation> sample, bool nelson) {
  std::sort(sample.begin(), sample.end(),
            [](const SurvivalObservation& a, const SurvivalObservation& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.observed && !b.observed;
            });
  std::vector<SurvivalPoint> curve;
  double value = nelson ? 0.0 : 1.0;
  std::size_t at_risk = sample.size();
  for (std::size_t i = 0; i < sample.size();) {
    const double t = sample[i].time;
    std::size_t events = 0;
    std::size_t leaving = 0;
    for (; i < sample.size() && sample[i].time == t; ++i, ++leaving) {
      if (sample[i].observed) ++events;
    }
    if (events > 0) {
      const double share =
          static_cast<double>(events) / static_cast<double>(at_risk);
      value = nelson ? value + share : value * (1.0 - share);
      curve.push_back({t, value});
    }
    at_risk -= leaving;
  }
  return curve;
}

void expect_same_bits(const std::vector<SurvivalPoint>& got,
                      const std::vector<SurvivalPoint>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].time),
              std::bit_cast<std::uint64_t>(want[i].time))
        << "step " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].value),
              std::bit_cast<std::uint64_t>(want[i].value))
        << "step " << i;
  }
}

TEST(SurvivalSort, TiedTimesWithMixedFlagsMatchTheComparatorSort) {
  // Whole-second times from a few hundred values, so most times are
  // tied between events and censorings, on both sides of the radix
  // cutoff and in a large sample; then with -0.0 tied to +0.0, which
  // goes back to the comparator sort.
  for (const std::size_t n :
       {kRadixSortMinSize - 1, kRadixSortMinSize, std::size_t{5000},
        std::size_t{70009}}) {
    Rng rng(n);
    std::vector<SurvivalObservation> sample(n);
    for (SurvivalObservation& obs : sample) {
      obs.time = std::floor(rng.uniform() * 300.0);
      obs.observed = rng.uniform() < 0.6;
    }
    for (const bool negative_zero : {false, true}) {
      SCOPED_TRACE(std::to_string(n) + (negative_zero ? " with -0.0" : ""));
      if (negative_zero) {
        for (std::size_t i = 0; i < n; i += 13) sample[i] = {-0.0, i % 2 == 0};
      }
      expect_same_bits(nelson_aalen(sample),
                       comparator_sorted_curve(sample, true));
      expect_same_bits(kaplan_meier(sample),
                       comparator_sorted_curve(sample, false));
    }
  }
}

}  // namespace
}  // namespace hpcfail::stats
