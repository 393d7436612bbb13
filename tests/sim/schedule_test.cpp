// Hazard-aware (adaptive-interval) checkpointing: the interval formula
// and the campaign policy that walks its segments.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "dist/exponential.hpp"
#include "dist/weibull.hpp"
#include "sim/campaign.hpp"
#include "sim/policy.hpp"
#include "sim/scenario.hpp"

namespace hpcfail::sim {
namespace {

constexpr double kDay = 86400.0;

/// One node, one job, Weibull(0.7) faults with no cut-off, instant repair.
CampaignScenario single_job(double scale, double work, double checkpoint_cost,
                            double restart_cost) {
  CampaignScenario scenario;
  scenario.name = "single-job";
  scenario.node_count = 1;
  scenario.horizon_seconds = std::numeric_limits<double>::infinity();
  scenario.faults = renewal_fault_model(
      std::make_shared<dist::Weibull>(0.7, scale), nullptr);
  scenario.job_work_seconds = work;
  scenario.job_count = 1;
  scenario.checkpoint_cost = checkpoint_cost;
  scenario.restart_cost = restart_cost;
  return scenario;
}

std::vector<CampaignRunResult> run(CampaignScenario scenario,
                                   CampaignPolicy policy, std::size_t runs,
                                   std::uint64_t seed) {
  CampaignSpec spec;
  spec.scenarios = {std::move(scenario)};
  spec.policies = {std::move(policy)};
  spec.runs_per_cell = runs;
  spec.seed = seed;
  return Campaign(spec).run().runs;
}

TEST(CheckpointSchedule, ConstantScheduleMatchesFixedInterval) {
  // Clamping the hazard-aware rule to [4 h, 4 h] walks the same segments
  // the fixed rule computes in closed form; single-policy campaigns at
  // one seed see the same faults.
  const CampaignScenario scenario =
      single_job(2.0 * kDay, 10.0 * kDay, 600.0, 120.0);
  const auto fixed =
      run(scenario, periodic_checkpoint_policy(4.0 * 3600.0), 8, 5);
  const auto scheduled = run(
      scenario, hazard_aware_checkpoint_policy(4.0 * 3600.0, 4.0 * 3600.0), 8,
      5);
  ASSERT_EQ(fixed.size(), scheduled.size());
  for (std::size_t i = 0; i < fixed.size(); ++i) {
    EXPECT_DOUBLE_EQ(fixed[i].makespan, scheduled[i].makespan);
    EXPECT_EQ(fixed[i].interruptions, scheduled[i].interruptions);
    EXPECT_DOUBLE_EQ(fixed[i].wasted_work, scheduled[i].wasted_work);
    EXPECT_DOUBLE_EQ(fixed[i].checkpoint_overhead,
                     scheduled[i].checkpoint_overhead);
  }
}

TEST(CheckpointSchedule, WorkConservationHolds) {
  // Hazard-aware segment ends are not round numbers, yet useful work must
  // add back up to the job's work however often it is killed: at the
  // 6-h scale, dozens of times per run.
  for (const auto& [scale, runs] :
       {std::pair{1.0 * kDay, 10}, std::pair{0.25 * kDay, 200}}) {
    for (const CampaignRunResult& s :
         run(single_job(scale, 20.0 * kDay, 300.0, 60.0),
             hazard_aware_checkpoint_policy(), runs, 7)) {
      EXPECT_GT(s.interruptions, 0u);
      EXPECT_NEAR(s.makespan,
                  s.useful_work + s.checkpoint_overhead + s.wasted_work +
                      s.restart_overhead + s.downtime,
                  1e-6 * s.makespan);
      EXPECT_DOUBLE_EQ(s.useful_work, 20.0 * kDay);
    }
  }
}

TEST(CheckpointSchedule, RejectsNonPositiveIntervals) {
  EXPECT_THROW(hazard_aware_checkpoint_policy(0.0, 100.0),
               hpcfail::InvalidArgument);
  EXPECT_THROW(hazard_aware_checkpoint_policy(100.0, 50.0),
               hpcfail::InvalidArgument);
  // A hand-built policy is checked when the campaign is built.
  CampaignPolicy policy = hazard_aware_checkpoint_policy();
  policy.hazard_aware->min_interval = 0.0;
  CampaignSpec spec;
  spec.scenarios = {single_job(kDay, 1000.0, 10.0, 0.0)};
  spec.policies = {policy};
  spec.runs_per_cell = 1;
  EXPECT_THROW(Campaign{spec}, hpcfail::InvalidArgument);
  // So is a job too long to segment: the cell precomputes its segment
  // ends, so the work must be finite and span at most 2^20 minimum
  // intervals.
  spec.policies = {hazard_aware_checkpoint_policy(60.0, kDay)};
  spec.scenarios = {single_job(kDay, std::numeric_limits<double>::infinity(),
                               10.0, 0.0)};
  EXPECT_THROW(Campaign{spec}, hpcfail::InvalidArgument);
  spec.scenarios = {single_job(kDay, 60.0 * 1048577.0, 10.0, 0.0)};
  EXPECT_THROW(Campaign{spec}, hpcfail::InvalidArgument);
  spec.scenarios = {single_job(kDay, 60.0 * 1048576.0, 10.0, 0.0)};
  EXPECT_NO_THROW(Campaign{spec});
}

TEST(CheckpointSchedule, NeedsOneSharedRenewalDistribution) {
  CampaignSpec spec;
  spec.policies = {hazard_aware_checkpoint_policy()};
  spec.runs_per_cell = 1;
  // Scripted faults have no hazard to follow ...
  CampaignScenario scripted = single_job(kDay, 1000.0, 10.0, 0.0);
  scripted.faults = scripted_fault_model({});
  spec.scenarios = {scripted};
  EXPECT_THROW(Campaign{spec}, hpcfail::InvalidArgument);
  // ... nor do per-node rates have one shared hazard ...
  CampaignScenario per_node = single_job(kDay, 1000.0, 10.0, 0.0);
  per_node.node_count = 2;
  per_node.faults =
      renewal_fault_model(heterogeneous_nodes(2, kDay, 0.3, 0.0, 1.0, 1));
  spec.scenarios = {per_node};
  EXPECT_THROW(Campaign{spec}, hpcfail::InvalidArgument);
  // ... and the rule replaces the fixed interval rather than adding to it.
  spec.scenarios = {single_job(kDay, 1000.0, 10.0, 0.0)};
  spec.policies.front().checkpoint_interval = 3600.0;
  EXPECT_THROW(Campaign{spec}, hpcfail::InvalidArgument);
}

TEST(HazardAwareSchedule, GrowsAfterFailureForDecreasingHazard) {
  const dist::Weibull failures(0.6, 6.0 * 3600.0);
  const HazardAwareBounds bounds{60.0, kDay};
  const double right_after =
      hazard_aware_interval(failures, 600.0, 10.0, bounds);
  const double much_later =
      hazard_aware_interval(failures, 600.0, 2.0 * kDay, bounds);
  EXPECT_LT(right_after, much_later);
}

TEST(HazardAwareSchedule, ConstantForExponential) {
  const dist::Exponential failures(1.0 / kDay);
  const HazardAwareBounds bounds{60.0, 7.0 * kDay};
  // Memoryless: the interval equals Young's everywhere.
  const double young = young_interval(kDay, 600.0);
  EXPECT_NEAR(hazard_aware_interval(failures, 600.0, 10.0, bounds), young,
              1.0);
  EXPECT_NEAR(hazard_aware_interval(failures, 600.0, 5.0 * kDay, bounds),
              young, 1.0);
}

TEST(HazardAwareSchedule, RespectsClamps) {
  const dist::Weibull failures(0.4, 3600.0);
  const HazardAwareBounds bounds{1800.0, 7200.0};
  EXPECT_GE(hazard_aware_interval(failures, 600.0, 0.0, bounds), 1800.0);
  EXPECT_LE(hazard_aware_interval(failures, 600.0, 365.0 * kDay, bounds),
            7200.0);
}

TEST(HazardAwareSchedule, ValidatesArguments) {
  const dist::Exponential failures(1.0);
  EXPECT_THROW(hazard_aware_interval(failures, 0.0, 0.0, HazardAwareBounds{}),
               hpcfail::InvalidArgument);
  EXPECT_THROW(hazard_aware_interval(failures, 10.0, 0.0,
                                     HazardAwareBounds{100.0, 50.0}),
               hpcfail::InvalidArgument);
}

}  // namespace
}  // namespace hpcfail::sim
