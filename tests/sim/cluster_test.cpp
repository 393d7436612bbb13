// Gang-scheduled clusters with per-node renewal rates on the campaign
// engine: placement, the concurrency cap, checkpointing, and validation.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "sim/campaign.hpp"
#include "sim/policy.hpp"
#include "sim/scenario.hpp"

namespace hpcfail::sim {
namespace {

constexpr double kDay = 86400.0;

ClusterNodeConfig reliable_node(double mtbf_days) {
  ClusterNodeConfig n;
  n.mtbf_seconds = mtbf_days * kDay;
  n.repair_mean_seconds = 6.0 * 3600.0;
  n.repair_median_seconds = 3600.0;
  return n;
}

/// Per-node renewal faults with no cut-off, no checkpoint or restart cost.
CampaignScenario cluster(const std::vector<ClusterNodeConfig>& nodes,
                         int job_width, double job_work, std::size_t jobs,
                         std::size_t max_concurrent_jobs = 0) {
  CampaignScenario scenario;
  scenario.name = "cluster";
  scenario.node_count = nodes.size();
  scenario.horizon_seconds = std::numeric_limits<double>::infinity();
  scenario.faults = renewal_fault_model(nodes);
  scenario.job_width = job_width;
  scenario.job_work_seconds = job_work;
  scenario.job_count = jobs;
  scenario.max_concurrent_jobs = max_concurrent_jobs;
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

TEST(Cluster, CompletesAllJobsWithoutFailures) {
  const CampaignRunResult s =
      run(cluster(std::vector<ClusterNodeConfig>(8, reliable_node(1e9)), 2,
                  3600.0, 16),
          no_protection_policy(), 1, 1)
          .front();
  EXPECT_EQ(s.interruptions, 0u);
  EXPECT_DOUBLE_EQ(s.wasted_work, 0.0);
  EXPECT_DOUBLE_EQ(s.useful_work, 16.0 * 2.0 * 3600.0);
  // 4 concurrent slots, 16 jobs of an hour: 4 waves.
  EXPECT_NEAR(s.makespan, 4.0 * 3600.0, 1.0);
}

TEST(Cluster, MaxConcurrentJobsLimitsParallelism) {
  const CampaignRunResult s =
      run(cluster(std::vector<ClusterNodeConfig>(8, reliable_node(1e9)), 2,
                  3600.0, 16, 2),
          no_protection_policy(), 1, 1)
          .front();
  EXPECT_NEAR(s.makespan, 8.0 * 3600.0, 1.0);
}

TEST(Cluster, FailuresCauseWasteAndInterruptions) {
  const CampaignRunResult s =
      run(cluster(std::vector<ClusterNodeConfig>(8, reliable_node(0.5)), 4,
                  12.0 * 3600.0, 20),
          no_protection_policy(), 1, 3)
          .front();
  EXPECT_GT(s.interruptions, 0u);
  EXPECT_GT(s.wasted_work, 0.0);
  EXPECT_GT(s.faults_injected, 0u);
  EXPECT_DOUBLE_EQ(s.useful_work, 20.0 * 4.0 * 12.0 * 3600.0);
}

TEST(Cluster, ReliabilityRankedBeatsRandomUnderPartialLoad) {
  // Heterogeneous nodes with a hot tail, half-loaded cluster: preferring
  // long-MTBF nodes must reduce waste (Section 5.1's motivation). One
  // campaign per policy at one seed, so both see the same faults.
  const CampaignScenario scenario =
      cluster(heterogeneous_nodes(64, 20.0 * kDay, 0.3, 0.08, 5.0, 99), 8,
              24.0 * 3600.0, 150, 4);
  double random_waste = 0.0;
  double ranked_waste = 0.0;
  for (const CampaignRunResult& r :
       run(scenario, no_protection_policy(), 3, 42)) {
    random_waste += r.waste_fraction();
  }
  for (const CampaignRunResult& r :
       run(scenario, reliability_ranked_policy(), 3, 42)) {
    ranked_waste += r.waste_fraction();
  }
  EXPECT_LT(ranked_waste, random_waste);
}

TEST(Cluster, RankedPlacementPrefersTheLongestMtbf) {
  // Two flaky nodes and two nearly immortal ones, all repaired within
  // seconds so the flaky pair is almost always free, and one 2-wide job
  // at a time: ranked placement never touches the flaky pair.
  std::vector<ClusterNodeConfig> nodes = {
      reliable_node(0.01), reliable_node(0.01), reliable_node(1e9),
      reliable_node(1e9)};
  for (ClusterNodeConfig& n : nodes) {
    n.repair_mean_seconds = 2.0;
    n.repair_median_seconds = 1.0;
  }
  const CampaignScenario scenario = cluster(nodes, 2, 10.0 * kDay, 3, 1);
  const CampaignRunResult ranked =
      run(scenario, reliability_ranked_policy(), 1, 9).front();
  EXPECT_GT(ranked.faults_injected, 0u);
  EXPECT_EQ(ranked.interruptions, 0u);
  EXPECT_DOUBLE_EQ(ranked.makespan, 30.0 * kDay);
  const CampaignRunResult random =
      run(scenario, no_protection_policy(), 1, 9).front();
  EXPECT_GT(random.interruptions, 0u);
}

TEST(Cluster, HeterogeneousNodesRespectHotFactor) {
  const auto nodes = heterogeneous_nodes(100, 10.0 * kDay, 0.0, 0.1, 4.0,
                                         7);
  ASSERT_EQ(nodes.size(), 100u);
  // First 10 nodes are "hot": MTBF divided by 4 (no jitter here).
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(nodes[i].mtbf_seconds, 10.0 * kDay / 4.0, 1.0);
  }
  for (std::size_t i = 10; i < 100; ++i) {
    EXPECT_NEAR(nodes[i].mtbf_seconds, 10.0 * kDay, 1.0);
  }
}

TEST(Cluster, HeterogeneousNodesValidateArguments) {
  EXPECT_THROW(heterogeneous_nodes(0, kDay, 0.3, 0.1, 4.0, 1),
               hpcfail::InvalidArgument);
  EXPECT_THROW(heterogeneous_nodes(10, -1.0, 0.3, 0.1, 4.0, 1),
               hpcfail::InvalidArgument);
  EXPECT_THROW(heterogeneous_nodes(10, kDay, 0.3, 1.5, 4.0, 1),
               hpcfail::InvalidArgument);
  EXPECT_THROW(heterogeneous_nodes(10, kDay, 0.3, 0.1, 0.5, 1),
               hpcfail::InvalidArgument);
}

TEST(Cluster, RejectsImpossibleConfigs) {
  EXPECT_THROW(renewal_fault_model(std::vector<ClusterNodeConfig>{}),
               hpcfail::InvalidArgument);

  const std::vector<ClusterNodeConfig> nodes(2, reliable_node(1.0));
  CampaignSpec spec;
  spec.policies = {no_protection_policy()};
  spec.runs_per_cell = 1;
  spec.scenarios = {cluster(nodes, 4, 10.0, 1)};  // wider than the cluster
  EXPECT_THROW(Campaign{spec}, hpcfail::InvalidArgument);
  spec.scenarios = {cluster(nodes, 1, 0.0, 1)};  // no work
  EXPECT_THROW(Campaign{spec}, hpcfail::InvalidArgument);
  spec.scenarios = {cluster(nodes, 1, 10.0, 1)};
  spec.scenarios.front().node_count = 0;  // no nodes
  EXPECT_THROW(Campaign{spec}, hpcfail::InvalidArgument);

  std::vector<ClusterNodeConfig> unskewed = nodes;
  unskewed[0].repair_median_seconds = unskewed[0].repair_mean_seconds;
  EXPECT_THROW(renewal_fault_model(unskewed), hpcfail::InvalidArgument);
  std::vector<ClusterNodeConfig> immortal = nodes;
  immortal[1].mtbf_seconds = 0.0;
  EXPECT_THROW(renewal_fault_model(immortal), hpcfail::InvalidArgument);
}

TEST(Cluster, CheckpointingReducesWasteAndMakespan) {
  // Long jobs on flaky nodes; checkpoint writes are free here.
  const CampaignScenario scenario =
      cluster(std::vector<ClusterNodeConfig>(16, reliable_node(1.0)), 4,
              2.0 * kDay, 30);
  const CampaignRunResult scratch =
      run(scenario, no_protection_policy(), 1, 21).front();
  const CampaignRunResult checkpointed =
      run(scenario, periodic_checkpoint_policy(2.0 * 3600.0), 1, 21).front();
  EXPECT_GT(scratch.interruptions, 0u);
  EXPECT_LT(checkpointed.wasted_work, scratch.wasted_work);
  EXPECT_LT(checkpointed.makespan, scratch.makespan);
  // Useful work is the full workload either way.
  EXPECT_DOUBLE_EQ(checkpointed.useful_work, 30.0 * 4.0 * 2.0 * kDay);
  EXPECT_DOUBLE_EQ(scratch.useful_work, checkpointed.useful_work);
}

TEST(Cluster, CheckpointProgressIsQuantized) {
  // One reliable node, one job checkpointing hourly: all work is useful
  // and nothing is interrupted.
  const CampaignRunResult s =
      run(cluster(std::vector<ClusterNodeConfig>(1, reliable_node(1e9)), 1,
                  10.0 * 3600.0, 1),
          periodic_checkpoint_policy(3600.0), 1, 5)
          .front();
  EXPECT_EQ(s.interruptions, 0u);
  EXPECT_DOUBLE_EQ(s.useful_work, 10.0 * 3600.0);
}

TEST(Cluster, RejectsNegativeCheckpointInterval) {
  CampaignPolicy policy = no_protection_policy();
  policy.checkpoint_interval = -1.0;
  CampaignSpec spec;
  spec.scenarios = {
      cluster(std::vector<ClusterNodeConfig>(2, reliable_node(1.0)), 1, 10.0,
              1)};
  spec.policies = {policy};
  spec.runs_per_cell = 1;
  EXPECT_THROW(Campaign{spec}, hpcfail::InvalidArgument);
}

TEST(Cluster, DeterministicGivenSeed) {
  const CampaignScenario scenario =
      cluster(heterogeneous_nodes(16, 5.0 * kDay, 0.2, 0.1, 3.0, 5), 4,
              6.0 * 3600.0, 30);
  const auto a = run(scenario, no_protection_policy(), 2, 77);
  const auto b = run(scenario, no_protection_policy(), 2, 77);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.front().faults_injected, 0u);
}

}  // namespace
}  // namespace hpcfail::sim
