#include "analysis/hazard.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/weibull.hpp"
#include "synth/generator.hpp"
#include "trace/index.hpp"

namespace hpcfail::analysis {
namespace {

using trace::DetailCause;
using trace::FailureDataset;
using trace::FailureRecord;
using trace::RootCause;

FailureDataset weibull_node_dataset(int system, int nodes, double shape,
                                    double scale, int failures_per_node,
                                    std::uint64_t seed) {
  const hpcfail::dist::Weibull w(shape, scale);
  hpcfail::Rng rng(seed);
  std::vector<FailureRecord> records;
  for (int node = 0; node < nodes; ++node) {
    Seconds t = to_epoch(2000, 1, 1);
    for (int i = 0; i < failures_per_node; ++i) {
      t += static_cast<Seconds>(w.sample(rng)) + 1;
      FailureRecord r;
      r.system_id = system;
      r.node_id = node;
      r.start = t;
      r.end = t + 600;
      r.cause = RootCause::hardware;
      r.detail = DetailCause::cpu;
      records.push_back(r);
    }
  }
  return FailureDataset(std::move(records));
}

TEST(HazardAnalysis, RecoversWeibullShapeAsSlope) {
  const FailureDataset ds =
      weibull_node_dataset(7, 20, 0.7, 100000.0, 200, 41);
  const HazardReport report = node_hazard_analysis(ds, 7);
  EXPECT_EQ(report.events, 20u * 199u);
  // One censored interval per node, except the node whose last failure
  // coincides with the default horizon (the trace's last failure).
  EXPECT_GE(report.censored, 19u);
  EXPECT_LE(report.censored, 20u);
  EXPECT_NEAR(report.log_log_slope, 0.7, 0.1);
  EXPECT_TRUE(report.decreasing_hazard());
}

TEST(HazardAnalysis, FlatHazardForExponentialLikeData) {
  const FailureDataset ds =
      weibull_node_dataset(7, 20, 1.0, 100000.0, 200, 43);
  const HazardReport report = node_hazard_analysis(ds, 7);
  EXPECT_NEAR(report.log_log_slope, 1.0, 0.1);
}

TEST(HazardAnalysis, CumulativeHazardIsMonotone) {
  const FailureDataset ds =
      weibull_node_dataset(3, 5, 0.8, 50000.0, 50, 47);
  const HazardReport report = node_hazard_analysis(ds, 3);
  double prev = 0.0;
  for (const auto& p : report.cumulative_hazard) {
    EXPECT_GE(p.value, prev);
    prev = p.value;
  }
}

TEST(HazardAnalysis, SyntheticLanlSystem20HasDecreasingHazard) {
  // The paper's headline hazard claim, checked model-free on the full
  // synthetic trace (late era to avoid the early-burst regime).
  const FailureDataset ds = synth::generate_lanl_trace(42);
  const FailureDataset late =
      ds.view().between(to_epoch(2000, 1, 1), to_epoch(2006, 1, 1))
          .materialize();
  const HazardReport report = node_hazard_analysis(late, 20);
  EXPECT_TRUE(report.decreasing_hazard());
  EXPECT_GT(report.log_log_slope, 0.4);
  EXPECT_LT(report.log_log_slope, 1.0);
}

TEST(HazardAnalysis, ExplicitCensorHorizonIsRespected) {
  const FailureDataset ds =
      weibull_node_dataset(3, 4, 0.9, 50000.0, 30, 53);
  const Seconds horizon = ds.records().back().start + 100 * kSecondsPerDay;
  const HazardReport with_horizon =
      node_hazard_analysis(ds, 3, horizon);
  const HazardReport default_horizon = node_hazard_analysis(ds, 3);
  // A horizon past the last failure censors every node; the default one
  // censors every node except the holder of the last failure.
  EXPECT_EQ(with_horizon.censored, 4u);
  EXPECT_EQ(default_horizon.censored, 3u);
  double longest_with = 0.0;
  double longest_default = 0.0;
  for (const auto& o : with_horizon.observations) {
    if (!o.observed) longest_with = std::max(longest_with, o.time);
  }
  for (const auto& o : default_horizon.observations) {
    if (!o.observed) longest_default = std::max(longest_default, o.time);
  }
  EXPECT_GT(longest_with, longest_default);
}

TEST(HazardAnalysis, FailuresAfterAnInnerHorizonAreNotObserved) {
  // Two nodes fail 40 times each with the same gaps, node 1 seven
  // seconds behind node 0; the horizon falls just after each node's 20th
  // failure. Each node then has 19 observed gaps and one interval
  // censored at the horizon, and its 20 later failures are not seen.
  std::vector<FailureRecord> records;
  std::vector<Seconds> twentieth;
  for (int node = 0; node < 2; ++node) {
    hpcfail::Rng rng(61);
    Seconds t = to_epoch(2000, 1, 1) + node * 7;
    for (int i = 0; i < 40; ++i) {
      t += 1000 + static_cast<Seconds>(rng.uniform_index(50000));
      FailureRecord r;
      r.system_id = 5;
      r.node_id = node;
      r.start = t;
      r.end = t + 600;
      r.cause = RootCause::hardware;
      r.detail = DetailCause::cpu;
      records.push_back(r);
      if (i == 19) twentieth.push_back(t);
    }
  }
  const FailureDataset ds(std::move(records));
  const Seconds horizon = twentieth[1] + 1;
  const HazardReport report = node_hazard_analysis(ds, 5, horizon);
  EXPECT_EQ(report.events, 38u);
  EXPECT_EQ(report.censored, 2u);
  EXPECT_EQ(report.observations.size(), 40u);
  for (const auto& o : report.observations) {
    if (!o.observed) {
      EXPECT_LT(o.time, 1000.0);
    }
  }
}

TEST(HazardAnalysis, InnerHorizonEqualsTheDatasetCutAtIt) {
  // A horizon inside the trace gives the report of the trace materialized
  // over [first start, horizon], with the same horizon.
  const FailureDataset ds = synth::generate_lanl_trace(42);
  for (const int system : {7, 20}) {
    SCOPED_TRACE("system " + std::to_string(system));
    const trace::DatasetView scoped = ds.view().for_system(system);
    const Seconds horizon =
        scoped.records().starts()[scoped.size() / 2];
    const FailureDataset cut =
        ds.view().between(ds.first_start(), horizon + 1).materialize();
    const HazardReport got = node_hazard_analysis(ds, system, horizon);
    const HazardReport want = node_hazard_analysis(cut, system, horizon);
    EXPECT_LT(got.events, node_hazard_analysis(ds, system).events);
    EXPECT_EQ(got.events, want.events);
    EXPECT_EQ(got.censored, want.censored);
    ASSERT_EQ(got.observations.size(), want.observations.size());
    for (std::size_t i = 0; i < got.observations.size(); ++i) {
      EXPECT_EQ(got.observations[i].time, want.observations[i].time);
      EXPECT_EQ(got.observations[i].observed,
                want.observations[i].observed);
    }
    ASSERT_EQ(got.cumulative_hazard.size(), want.cumulative_hazard.size());
    for (std::size_t i = 0; i < got.cumulative_hazard.size(); ++i) {
      EXPECT_EQ(got.cumulative_hazard[i].time,
                want.cumulative_hazard[i].time);
      EXPECT_EQ(got.cumulative_hazard[i].value,
                want.cumulative_hazard[i].value);
    }
    EXPECT_EQ(got.log_log_slope, want.log_log_slope);
  }
}

TEST(HazardAnalysis, GapsWiderThanTheSignedRangeAreExact) {
  // Raw epoch seconds from a Lu log: node 0 fails at -9e18 and +9e18,
  // node 1 at -9e18 and 0, node 2 once at -9e18. The default horizon is
  // +9e18, so node 0's gap and node 2's censored interval are 1.8e19 s,
  // past the largest Seconds.
  constexpr Seconds kFar = 9'000'000'000'000'000'000;
  const auto at = [](int node, Seconds start) {
    FailureRecord r;
    r.system_id = 1;
    r.node_id = node;
    r.start = r.end = start;
    r.cause = RootCause::hardware;
    r.detail = DetailCause::cpu;
    return r;
  };
  const FailureDataset ds(
      {at(0, -kFar), at(0, kFar), at(1, -kFar), at(1, 0), at(2, -kFar)});
  const HazardReport report = node_hazard_analysis(ds, 1, {}, 2);
  EXPECT_EQ(report.events, 2u);
  EXPECT_EQ(report.censored, 2u);
  ASSERT_EQ(report.observations.size(), 4u);
  const std::vector<std::pair<double, bool>> want = {
      {1.8e19, true}, {9e18, true}, {9e18, false}, {1.8e19, false}};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(report.observations[i].time, want[i].first) << i;
    EXPECT_EQ(report.observations[i].observed, want[i].second) << i;
  }
  // Four at risk at 9e18 (one event), then two at 1.8e19 (one event).
  ASSERT_EQ(report.cumulative_hazard.size(), 2u);
  EXPECT_EQ(report.cumulative_hazard[1].time, 1.8e19);
  EXPECT_DOUBLE_EQ(report.cumulative_hazard[1].value, 0.25 + 0.5);
}

TEST(HazardAnalysis, ThrowsOnMissingOrTinySystems) {
  const FailureDataset ds =
      weibull_node_dataset(3, 1, 0.9, 50000.0, 5, 59);
  EXPECT_THROW(node_hazard_analysis(ds, 4), InvalidArgument);
  EXPECT_THROW(node_hazard_analysis(ds, 3, {}, 16), InvalidArgument);
}

}  // namespace
}  // namespace hpcfail::analysis
