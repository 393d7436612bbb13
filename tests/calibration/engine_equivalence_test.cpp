// Old-vs-new engine equivalence: the campaign engine must agree in
// distribution with the two simulators it replaced, on configurations
// where their models coincide.
//
// The constants are each (config, metric)'s mean and standard error over
// 2000 replicates of the retired engines at commit c7a0f4c: the
// single-job checkpoint loop for the checkpoint family, the event-driven
// cluster simulator for the cluster family. Config k (0-based, in table
// order) ran its replicates back to back on Rng(100 + k); its campaign
// here runs 2000 replicates at seed 200 + k. The check per (config,
// metric) is |mean_new - mean_old| <= 4 * sqrt(se_old^2 + se_new^2).
//
// Where the models coincide:
//   * checkpoint family: one node, one job, zero restart cost and instant
//     repair, so calendar-time renewal is the old operational-time clock
//     and the only job is killed by every fault;
//   * cluster family: no checkpointing (identical jobs restart from
//     scratch, so requeue order cannot matter) and 2-s repairs against
//     multi-day MTBFs (a fault during repair is vanishingly rare).
//
// One more rule differs, and only ranked placement under a concurrency
// cap feels it: the cluster simulator did not re-dispatch a killed job at
// the fault instant but at the next repair or completion, about 2 s
// later, so ranked placement put it straight back on the node that had
// just failed, at the peak of its decreasing Weibull hazard. The ranked-2
// row of kClusterFamily is that unmodified engine, and the campaign must
// sit more than 4 combined standard errors below it in both metrics
// (about 7 at these seeds). kRanked2Aligned is the same simulator, config
// and Rng(104) with that one rule aligned, and the campaign must agree
// with it. The alignment is one added line in src/sim/cluster.cpp at
// c7a0f4c: `try_dispatch();` after line 264, i.e. between the node_repair
// `events.push(...)` that ends the event loop's `EventKind::node_failure`
// case and that case's `break;`.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "dist/exponential.hpp"
#include "dist/weibull.hpp"
#include "sim/campaign.hpp"
#include "sim/policy.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace hpcfail;

constexpr std::size_t kReplicates = 2000;
constexpr double kDay = 86400.0;
constexpr double kHour = 3600.0;

struct Estimate {
  double mean = 0.0;
  double se = 0.0;
};

struct Frozen {
  const char* config;
  Estimate first;   ///< checkpoint: makespan; cluster: waste fraction
  Estimate second;  ///< checkpoint: interruptions; cluster: makespan
};

constexpr Frozen kCheckpointFamily[] = {
    {"weibull-6h",
     {1091994.8015670571, 626.49462680719444},
     {51.061999999999998, 0.25830783857586448}},
    {"weibull-24h",
     {973871.03983738518, 584.81136609100702},
     {12.0535, 0.11444373097194756}},
    {"exponential-24h",
     {974586.22292108298, 458.75949317891087},
     {11.390000000000001, 0.080337893229436422}},
};

constexpr Frozen kClusterFamily[] = {
    {"random-2",
     {0.37863894943250964, 0.0011611940032556318},
     {2844085.7666729107, 5467.7741824486266}},
    {"ranked-2",
     {0.26288380839425035, 0.0012514573741327216},
     {2391841.3246931806, 4164.4766003221375}},
    {"random-all",
     {0.44364637371704002, 0.0011699648818778987},
     {926311.92714880535, 2731.8721952655364}},
    {"ranked-all",
     {0.42198111685474904, 0.0011045099533547376},
     {865063.43838612188, 2053.4369695269565}},
};

// Ranked-2 with the re-dispatch at the kill aligned; see above.
constexpr Frozen kRanked2Aligned = {
    "ranked-2 aligned",
    {0.25274659987042658, 0.0012579029288140918},
    {2357877.9703418338, 4093.6879730192154}};

Estimate estimate(const std::vector<sim::CampaignRunResult>& runs,
                  const std::function<double(const sim::CampaignRunResult&)>&
                      metric) {
  double sum = 0.0;
  for (const sim::CampaignRunResult& r : runs) sum += metric(r);
  const auto n = static_cast<double>(runs.size());
  const double mean = sum / n;
  double squares = 0.0;
  for (const sim::CampaignRunResult& r : runs) {
    squares += (metric(r) - mean) * (metric(r) - mean);
  }
  return {mean, std::sqrt(squares / (n - 1.0) / n)};
}

void expect_agreement(const char* config, const char* metric,
                      const Estimate& old_engine, const Estimate& campaign) {
  const double bound = 4.0 * std::sqrt(old_engine.se * old_engine.se +
                                       campaign.se * campaign.se);
  EXPECT_LE(std::abs(campaign.mean - old_engine.mean), bound)
      << config << " " << metric << ": old " << old_engine.mean << " +- "
      << old_engine.se << ", campaign " << campaign.mean << " +- "
      << campaign.se;
}

void expect_below(const char* config, const char* metric,
                  const Estimate& old_engine, const Estimate& campaign) {
  const double bound = 4.0 * std::sqrt(old_engine.se * old_engine.se +
                                       campaign.se * campaign.se);
  EXPECT_LT(campaign.mean, old_engine.mean - bound)
      << config << " " << metric << ": old " << old_engine.mean << " +- "
      << old_engine.se << ", campaign " << campaign.mean << " +- "
      << campaign.se;
}

std::vector<sim::CampaignRunResult> run_campaign(sim::CampaignScenario scenario,
                                                 sim::CampaignPolicy policy,
                                                 std::uint64_t seed) {
  sim::CampaignSpec spec;
  spec.scenarios = {std::move(scenario)};
  spec.policies = {std::move(policy)};
  spec.runs_per_cell = kReplicates;
  spec.seed = seed;
  return sim::Campaign(spec).run().runs;
}

TEST(EngineEquivalence, CheckpointFamilyMatchesTheSingleJobLoop) {
  const double shape = 0.7;
  const auto weibull_with_mtbf = [shape](double mtbf) {
    return std::make_shared<dist::Weibull>(
        shape, mtbf / std::exp(std::lgamma(1.0 + 1.0 / shape)));
  };
  const struct {
    std::shared_ptr<const dist::Distribution> failures;
    double mtbf;
  } configs[] = {
      {weibull_with_mtbf(6.0 * kHour), 6.0 * kHour},
      {weibull_with_mtbf(24.0 * kHour), 24.0 * kHour},
      {std::make_shared<dist::Exponential>(1.0 / (24.0 * kHour)),
       24.0 * kHour},
  };
  for (std::size_t k = 0; k < std::size(configs); ++k) {
    sim::CampaignScenario scenario;
    scenario.name = kCheckpointFamily[k].config;
    scenario.node_count = 1;
    scenario.horizon_seconds = std::numeric_limits<double>::infinity();
    scenario.faults = sim::renewal_fault_model(configs[k].failures, nullptr);
    scenario.job_work_seconds = 10.0 * kDay;
    scenario.job_count = 1;
    scenario.checkpoint_cost = 600.0;
    const auto runs = run_campaign(
        scenario,
        sim::periodic_checkpoint_policy(
            sim::daly_interval(configs[k].mtbf, 600.0)),
        200 + k);
    expect_agreement(
        kCheckpointFamily[k].config, "makespan", kCheckpointFamily[k].first,
        estimate(runs, [](const auto& r) { return r.makespan; }));
    expect_agreement(kCheckpointFamily[k].config, "interruptions",
                     kCheckpointFamily[k].second,
                     estimate(runs, [](const auto& r) {
                       return static_cast<double>(r.interruptions);
                     }));
  }
}

TEST(EngineEquivalence, ClusterFamilyMatchesTheClusterSimulator) {
  std::vector<sim::ClusterNodeConfig> nodes =
      sim::heterogeneous_nodes(32, 5.0 * kDay, 0.3, 0.1, 5.0, 99);
  for (sim::ClusterNodeConfig& n : nodes) {
    n.repair_mean_seconds = 2.0;
    n.repair_median_seconds = 1.0;
  }
  const struct {
    bool ranked;
    std::size_t max_concurrent_jobs;
    const Frozen* aligned;  ///< the old engine with the re-dispatch aligned
  } configs[] = {{false, 2, nullptr},
                 {true, 2, &kRanked2Aligned},
                 {false, 0, nullptr},
                 {true, 0, nullptr}};
  for (std::size_t k = 0; k < std::size(configs); ++k) {
    sim::CampaignScenario scenario;
    scenario.name = kClusterFamily[k].config;
    scenario.node_count = nodes.size();
    scenario.horizon_seconds = std::numeric_limits<double>::infinity();
    scenario.faults = sim::renewal_fault_model(nodes);
    scenario.job_width = 4;
    scenario.job_work_seconds = 24.0 * kHour;
    scenario.job_count = 40;
    scenario.max_concurrent_jobs = configs[k].max_concurrent_jobs;
    const auto runs =
        run_campaign(scenario,
                     configs[k].ranked ? sim::reliability_ranked_policy(0.0)
                                       : sim::no_protection_policy(),
                     200 + std::size(kCheckpointFamily) + k);
    const Estimate waste =
        estimate(runs, [](const auto& r) { return r.waste_fraction(); });
    const Estimate makespan =
        estimate(runs, [](const auto& r) { return r.makespan; });
    const Frozen& old_engine = kClusterFamily[k];
    const Frozen& expected =
        configs[k].aligned ? *configs[k].aligned : old_engine;
    expect_agreement(expected.config, "waste fraction", expected.first, waste);
    expect_agreement(expected.config, "makespan", expected.second, makespan);
    if (configs[k].aligned) {
      expect_below(old_engine.config, "waste fraction", old_engine.first,
                   waste);
      expect_below(old_engine.config, "makespan", old_engine.second, makespan);
    }
  }
}

}  // namespace
