// Single-job checkpoint/restart on the campaign engine: one node running
// one job, faults from a renewal process, and every second accounted.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "dist/exponential.hpp"
#include "dist/lognormal.hpp"
#include "dist/weibull.hpp"
#include "sim/campaign.hpp"
#include "sim/policy.hpp"
#include "sim/scenario.hpp"

namespace hpcfail::sim {
namespace {

constexpr double kDay = 86400.0;

/// One node, one job, faults from `failures` with no cut-off; repairs
/// from `repair` (null = instant).
CampaignScenario single_job(std::shared_ptr<const dist::Distribution> failures,
                            std::shared_ptr<const dist::Distribution> repair,
                            double work, double checkpoint_cost,
                            double restart_cost) {
  CampaignScenario scenario;
  scenario.name = "single-job";
  scenario.node_count = 1;
  scenario.horizon_seconds = std::numeric_limits<double>::infinity();
  scenario.faults = renewal_fault_model(std::move(failures), std::move(repair));
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

double mean_of(const std::vector<CampaignRunResult>& runs,
               double CampaignRunResult::*field) {
  double sum = 0.0;
  for (const CampaignRunResult& r : runs) sum += r.*field;
  return sum / static_cast<double>(runs.size());
}

double mean_interruptions(const std::vector<CampaignRunResult>& runs) {
  double sum = 0.0;
  for (const CampaignRunResult& r : runs) {
    sum += static_cast<double>(r.interruptions);
  }
  return sum / static_cast<double>(runs.size());
}

TEST(Checkpoint, FailureFreeRunHasOnlyCheckpointOverhead) {
  // MTBF enormously larger than the job: effectively failure-free.
  const auto runs =
      run(single_job(std::make_shared<dist::Exponential>(1e-12), nullptr,
                     10000.0, 100.0, 50.0),
          periodic_checkpoint_policy(1000.0), 1, 1);
  const CampaignRunResult& s = runs.front();
  EXPECT_EQ(s.interruptions, 0u);
  EXPECT_DOUBLE_EQ(s.useful_work, 10000.0);
  EXPECT_DOUBLE_EQ(s.wasted_work, 0.0);
  // 10 segments, checkpoint after each but the last: 9 * 100.
  EXPECT_DOUBLE_EQ(s.checkpoint_overhead, 900.0);
  EXPECT_DOUBLE_EQ(s.makespan, 10900.0);
}

TEST(Checkpoint, WorkConservationHoldsExactly) {
  // One node: the run is busy (restart, work, writes, lost work) or down.
  const auto runs = run(
      single_job(std::make_shared<dist::Weibull>(0.7, 2.0 * kDay),
                 std::make_shared<dist::LogNormal>(
                     dist::LogNormal::from_mean_median(6.0 * 3600.0, 3600.0)),
                 30.0 * kDay, 600.0, 300.0),
      periodic_checkpoint_policy(3.0 * 3600.0), 20, 2);
  for (const CampaignRunResult& s : runs) {
    EXPECT_NEAR(s.makespan,
                s.useful_work + s.checkpoint_overhead + s.wasted_work +
                    s.restart_overhead + s.downtime,
                1e-6 * s.makespan);
    EXPECT_DOUBLE_EQ(s.useful_work, 30.0 * kDay);
    EXPECT_GE(s.makespan, s.useful_work);
  }
}

TEST(Checkpoint, MoreFailuresMeanMoreLostWork) {
  const CampaignPolicy policy = periodic_checkpoint_policy(6.0 * 3600.0);
  const auto busy = run(
      single_job(std::make_shared<dist::Exponential>(1.0 / kDay), nullptr,
                 30.0 * kDay, 600.0, 300.0),
      policy, 40, 3);
  const auto calm = run(
      single_job(std::make_shared<dist::Exponential>(1.0 / (20.0 * kDay)),
                 nullptr, 30.0 * kDay, 600.0, 300.0),
      policy, 40, 3);
  EXPECT_GT(mean_interruptions(busy), 5.0 * mean_interruptions(calm));
  EXPECT_GT(mean_of(busy, &CampaignRunResult::wasted_work),
            mean_of(calm, &CampaignRunResult::wasted_work));
  EXPECT_GT(mean_of(busy, &CampaignRunResult::makespan),
            mean_of(calm, &CampaignRunResult::makespan));
}

TEST(Checkpoint, YoungIntervalFormula) {
  EXPECT_DOUBLE_EQ(young_interval(86400.0, 600.0),
                   std::sqrt(2.0 * 600.0 * 86400.0));
  EXPECT_THROW(young_interval(0.0, 600.0), hpcfail::InvalidArgument);
  EXPECT_THROW(young_interval(86400.0, 0.0), hpcfail::InvalidArgument);
}

TEST(Checkpoint, DalyRefinesYoung) {
  const double mtbf = 86400.0;
  const double cost = 600.0;
  const double young = young_interval(mtbf, cost);
  const double daly = daly_interval(mtbf, cost);
  // Daly's correction is small but positive for C << MTBF minus C.
  EXPECT_NEAR(daly, young, 0.1 * young);
  EXPECT_NE(daly, young);
  // Degenerate regime falls back to MTBF.
  EXPECT_DOUBLE_EQ(daly_interval(100.0, 300.0), 100.0);
}

TEST(Checkpoint, SimulatedOptimumNearDalyUnderExponentialFailures) {
  // Under the classical exponential assumption the simulated best
  // interval should bracket the analytic one. One single-policy campaign
  // per candidate at one seed: every candidate sees the same faults.
  const double mtbf = 1.0 * kDay;
  const double cost = 600.0;
  const CampaignScenario scenario =
      single_job(std::make_shared<dist::Exponential>(1.0 / mtbf), nullptr,
                 20.0 * kDay, cost, 60.0);
  const double daly = daly_interval(mtbf, cost);
  double best = 0.0;
  double best_makespan = std::numeric_limits<double>::infinity();
  for (double f = 0.125; f <= 8.0; f *= 2.0) {
    const double makespan =
        mean_of(run(scenario, periodic_checkpoint_policy(daly * f), 64, 5),
                &CampaignRunResult::makespan);
    if (makespan < best_makespan) {
      best = daly * f;
      best_makespan = makespan;
    }
  }
  EXPECT_GE(best, daly * 0.25);
  EXPECT_LE(best, daly * 4.0);
}

TEST(Checkpoint, IntervalLargerThanWorkStillCompletes) {
  const auto runs =
      run(single_job(std::make_shared<dist::Exponential>(1e-9), nullptr,
                     100.0, 10.0, 5.0),
          periodic_checkpoint_policy(1e6), 1, 7);
  EXPECT_DOUBLE_EQ(runs.front().useful_work, 100.0);
  EXPECT_DOUBLE_EQ(runs.front().checkpoint_overhead, 0.0);  // one segment
}

TEST(Checkpoint, RejectsBadConfig) {
  const auto f = std::make_shared<dist::Exponential>(1.0);
  CampaignSpec spec;
  spec.scenarios = {single_job(f, nullptr, 0.0, 1.0, 0.0)};
  spec.policies = {periodic_checkpoint_policy(1.0)};
  spec.runs_per_cell = 1;
  EXPECT_THROW(Campaign{spec}, hpcfail::InvalidArgument);  // no work
  spec.scenarios = {single_job(f, nullptr, 10.0, -1.0, 0.0)};
  EXPECT_THROW(Campaign{spec}, hpcfail::InvalidArgument);  // negative cost
  spec.scenarios = {single_job(f, nullptr, 10.0, 1.0, 0.0)};
  spec.runs_per_cell = 0;
  EXPECT_THROW(Campaign{spec}, hpcfail::InvalidArgument);  // no runs
  EXPECT_THROW(periodic_checkpoint_policy(0.0), hpcfail::InvalidArgument);
}

TEST(Checkpoint, RepairDowntimeIsAccounted) {
  const auto runs = run(
      single_job(std::make_shared<dist::Exponential>(1.0 / (0.5 * kDay)),
                 std::make_shared<dist::LogNormal>(
                     dist::LogNormal::from_mean_median(7200.0, 1800.0)),
                 10.0 * kDay, 300.0, 120.0),
      periodic_checkpoint_policy(2.0 * 3600.0), 20, 11);
  double downtime = 0.0;
  double repairs = 0.0;
  for (const CampaignRunResult& r : runs) {
    downtime += r.downtime;
    repairs += static_cast<double>(r.faults_injected - r.faults_absorbed);
  }
  EXPECT_GT(repairs, 0.0);
  EXPECT_GT(downtime, 0.0);
  // Mean downtime per repaired fault should be near the repair mean.
  EXPECT_NEAR(downtime / repairs, 7200.0, 3600.0);
}

}  // namespace
}  // namespace hpcfail::sim
