// Checkpoint/restart equivalence on the campaign engine: a scripted fault
// on a one-node, one-job scenario lands at an exact instant, and the
// post-restart trajectory must be bit-identical to an uninterrupted run
// of the remaining work. A fault at the instant a checkpoint write
// completes keeps that checkpoint. All times are exact binary doubles,
// so every equality below is ==, not near.
//
// Also: the calibrate_nodes -> per-node renewal loop (calibrated configs
// behave like hand-written ones) as a smoke contract.
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "sim/calibrate.hpp"
#include "sim/campaign.hpp"
#include "sim/policy.hpp"
#include "sim/scenario.hpp"
#include "synth/generator.hpp"
#include "trace/catalog.hpp"

namespace {

using namespace hpcfail;

// W = 8 segments of 1024s with 64s checkpoints and a 32s restart; every
// quantity is an exact integer in double, so sums cannot round. Faults
// repair instantly.
sim::CampaignRunResult run_exact(std::vector<double> fault_times,
                                 double work = 8192.0,
                                 std::uint64_t seed = 1) {
  std::vector<sim::InjectedFault> faults;
  for (const double t : fault_times) faults.push_back({t, 0, 0.0});
  sim::CampaignScenario scenario;
  scenario.name = "exact";
  scenario.node_count = 1;
  scenario.faults = sim::scripted_fault_model(std::move(faults));
  scenario.job_work_seconds = work;
  scenario.job_count = 1;
  scenario.checkpoint_cost = 64.0;
  scenario.restart_cost = 32.0;
  sim::CampaignSpec spec;
  spec.scenarios = {scenario};
  spec.policies = {sim::periodic_checkpoint_policy(1024.0)};
  spec.runs_per_cell = 1;
  spec.seed = seed;
  return sim::Campaign(spec).execute_run(0, 0);
}

TEST(RestartEquivalence, UninterruptedRunAccountsExactly) {
  const sim::CampaignRunResult stats = run_exact({});
  EXPECT_EQ(stats.interruptions, 0u);
  EXPECT_EQ(stats.useful_work, 8192.0);
  // 7 attempts of 1088 (the final segment writes no checkpoint) + 1024.
  EXPECT_EQ(stats.makespan, 7 * 1088.0 + 1024.0);
  EXPECT_EQ(stats.checkpoint_overhead, 7 * 64.0);
  EXPECT_EQ(stats.wasted_work, 0.0);
  EXPECT_EQ(stats.restart_overhead, 0.0);
}

TEST(RestartEquivalence, RestartFromCheckpointEqualsUninterruptedRemainder) {
  // Fail exactly when the 3rd checkpoint write completes (t = 3 * 1088):
  // that checkpoint counts, so the run restarts with 3072s saved.
  const sim::CampaignRunResult interrupted = run_exact({3.0 * 1088.0});
  const sim::CampaignRunResult full_run = run_exact({});
  const sim::CampaignRunResult remainder_run =
      run_exact({}, 8192.0 - 3072.0);

  EXPECT_EQ(interrupted.interruptions, 1u);
  EXPECT_EQ(interrupted.useful_work, full_run.useful_work);
  // Nothing is redone; the fault costs only the restart ...
  EXPECT_EQ(interrupted.wasted_work, 0.0);
  EXPECT_EQ(interrupted.makespan, full_run.makespan + 32.0);
  // ... and the post-restart trajectory is the uninterrupted run of the
  // remaining 5120s of work, to the last bit of makespan:
  // time-to-failure + restart + remainder == total.
  EXPECT_EQ(interrupted.makespan,
            3.0 * 1088.0 + 32.0 + remainder_run.makespan);
  EXPECT_EQ(interrupted.checkpoint_overhead, full_run.checkpoint_overhead);
}

TEST(RestartEquivalence, MidSegmentFailureLosesOnlyThatSegment) {
  // Fail 100s into the 3rd segment (t = 2*1088 + 100): saved work stays
  // 2048 and only the 100 in-flight seconds are lost.
  const sim::CampaignRunResult stats = run_exact({2.0 * 1088.0 + 100.0});
  EXPECT_EQ(stats.interruptions, 1u);
  EXPECT_EQ(stats.wasted_work, 100.0);
  EXPECT_EQ(stats.useful_work, 8192.0);
  EXPECT_EQ(stats.makespan, run_exact({}).makespan + 100.0 + 32.0);
}

TEST(RestartEquivalence, ScriptedRunsAreIndependentOfTheRngSeed) {
  // A scripted fault list and a one-node cluster leave nothing for the
  // seed to decide — the degenerate case of determinism.
  EXPECT_EQ(run_exact({3.0 * 1088.0}, 8192.0, 1),
            run_exact({3.0 * 1088.0}, 8192.0, 999));
}

TEST(RestartEquivalence, CalibratedNodesRunLikeDefaultNodes) {
  // calibrate_nodes output must drop into a per-node renewal scenario
  // unchanged and complete the same workload a hand-written one does.
  const auto ds = synth::generate_lanl_trace(11);
  const auto& catalog = trace::SystemCatalog::lanl();
  const auto calibrated = sim::calibrate_nodes(ds, catalog, 20);
  ASSERT_FALSE(calibrated.empty());
  for (const auto& node : calibrated) {
    EXPECT_GT(node.mtbf_seconds, 0.0);
    EXPECT_GT(node.repair_mean_seconds, 0.0);
    EXPECT_GT(node.repair_median_seconds, 0.0);
  }

  const auto run_on = [](const std::vector<sim::ClusterNodeConfig>& nodes) {
    sim::CampaignScenario scenario;
    scenario.name = "calibrated";
    scenario.node_count = nodes.size();
    scenario.horizon_seconds = std::numeric_limits<double>::infinity();
    scenario.faults = sim::renewal_fault_model(nodes);
    scenario.job_width = 4;
    scenario.job_work_seconds = 6.0 * 3600.0;
    scenario.job_count = 24;
    sim::CampaignSpec spec;
    spec.scenarios = {scenario};
    spec.policies = {sim::periodic_checkpoint_policy(3600.0)};
    spec.runs_per_cell = 1;
    spec.seed = 77;
    return sim::Campaign(spec).execute_run(0, 0);
  };
  const sim::CampaignRunResult stats = run_on(
      std::vector<sim::ClusterNodeConfig>(calibrated.begin(),
                                          calibrated.begin() + 16));
  EXPECT_GT(stats.makespan, 0.0);
  EXPECT_EQ(stats.useful_work, 6.0 * 3600.0 * 4.0 * 24.0);

  const sim::CampaignRunResult default_stats = run_on(
      std::vector<sim::ClusterNodeConfig>(16, {3.0e6, 6.0 * 3600.0,
                                               4.0 * 3600.0}));
  EXPECT_EQ(default_stats.useful_work, stats.useful_work);
}

}  // namespace
