// Campaign determinism contract: results are bit-identical at any thread
// count (each run is a pure function of (spec, cell, replicate) on its
// own forked RNG stream), across checkpoint-resume at any thread count,
// and with observability on or off. The cell summaries are held to the
// same contract: each bootstrap resamples from its own (fingerprint,
// cell, metric) stream, whichever worker runs it.
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "sim/campaign.hpp"
#include "sim/policy.hpp"
#include "sim/scenario.hpp"
#include "testkit/calibration.hpp"

namespace {

using namespace hpcfail;

/// A small grid that still exercises every engine path: scripted cascade
/// kills, renewal sampling, and crew-limited repair queueing, against
/// all three default policies (including the RNG-consuming random
/// placement and the ranked placement).
sim::CampaignSpec mixed_spec() {
  sim::CampaignSpec spec;
  spec.scenarios = {
      sim::staggered_cascade_scenario(16, 0.25, 1000.0, 200.0, 3600.0),
      sim::weibull_renewal_scenario(10, 86400.0, 4.0 * 86400.0),
      sim::repair_contention_scenario(8, 1),
  };
  spec.policies = sim::default_policy_set();
  spec.runs_per_cell = 3;
  return spec;
}

/// Every cell summary's bits: its counts, then point, lo, hi, std_error
/// and replicates of each of the three metrics.
std::vector<std::uint64_t> summary_bits(const sim::CampaignResult& result) {
  std::vector<std::uint64_t> bits;
  for (const sim::CampaignCellSummary& c : result.cells) {
    bits.push_back(c.runs);
    bits.push_back(c.faults_injected);
    for (const stats::BootstrapResult* b :
         {&c.makespan, &c.waste_fraction, &c.interruptions}) {
      for (const double v : {b->point, b->lo, b->hi, b->std_error}) {
        bits.push_back(std::bit_cast<std::uint64_t>(v));
      }
      bits.push_back(b->replicates);
    }
  }
  return bits;
}

/// The runs and the summary bits of one campaign result.
using RunsAndSummaries =
    std::pair<std::vector<sim::CampaignRunResult>, std::vector<std::uint64_t>>;

RunsAndSummaries runs_and_summaries(const sim::CampaignResult& result) {
  return {result.runs, summary_bits(result)};
}

TEST(CampaignDeterminism, BitIdenticalAcrossThreadCounts) {
  const sim::Campaign campaign(mixed_spec());
  EXPECT_TRUE(testkit::identical_across_threads(
      [&campaign] { return runs_and_summaries(campaign.run()); }));
}

TEST(CampaignDeterminism, SchedulesAreIdenticalAcrossThreadCounts) {
  const sim::Campaign campaign(mixed_spec());
  EXPECT_TRUE(testkit::identical_across_threads(
      [&campaign] { return campaign.schedule_for(4, 1); }));
}

TEST(CampaignDeterminism, ResumeIsBitIdenticalAtEveryThreadCount) {
  const sim::Campaign campaign(mixed_spec());
  set_parallelism(1);
  const RunsAndSummaries reference = runs_and_summaries(campaign.run());
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_parallelism(threads);
    const sim::CampaignCheckpoint partial = campaign.run_partial(10);
    const RunsAndSummaries resumed =
        runs_and_summaries(campaign.run(&partial));
    EXPECT_EQ(resumed.first, reference.first) << "at " << threads << " threads";
    EXPECT_EQ(resumed.second, reference.second)
        << "summaries at " << threads << " threads";
  }
  set_parallelism(0);
}

TEST(CampaignDeterminism, ObservabilityDoesNotPerturbResults) {
  const sim::Campaign campaign(mixed_spec());
  set_parallelism(1);
  const RunsAndSummaries reference = runs_and_summaries(campaign.run());
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_parallelism(threads);
    const RunsAndSummaries with_obs = runs_and_summaries(campaign.run());
    obs::disable();
    const RunsAndSummaries without_obs = runs_and_summaries(campaign.run());
    obs::enable();
    EXPECT_EQ(with_obs.first, reference.first)
        << "at " << threads << " threads";
    EXPECT_EQ(without_obs.first, reference.first)
        << "obs off at " << threads << " threads";
    EXPECT_EQ(with_obs.second, reference.second)
        << "summaries at " << threads << " threads";
    EXPECT_EQ(without_obs.second, reference.second)
        << "summaries with obs off at " << threads << " threads";
  }
  set_parallelism(0);
}

}  // namespace
