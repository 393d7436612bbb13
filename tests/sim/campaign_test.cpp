// Campaign engine contract: spec validation, scenario-library shapes,
// exact fault accounting (all times are exact binary doubles, so every
// equality is ==, not near), checkpoint round-trips, and the
// mid-interruption resume regression — a campaign resumed from a partial
// checkpoint must reproduce the uninterrupted campaign bit for bit.
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "sim/campaign.hpp"
#include "sim/policy.hpp"
#include "sim/scenario.hpp"
#include "synth/generator.hpp"
#include "testkit/reference.hpp"
#include "trace/index.hpp"

namespace {

using namespace hpcfail;

// A two-node gang with integer-valued costs: every accounting quantity
// below is exact in double.
sim::CampaignScenario exact_scenario(std::vector<sim::InjectedFault> faults) {
  sim::CampaignScenario scenario;
  scenario.name = "exact";
  scenario.node_count = 2;
  scenario.faults = sim::scripted_fault_model(std::move(faults));
  scenario.job_width = 2;
  scenario.job_work_seconds = 1024.0;
  scenario.job_count = 1;
  scenario.checkpoint_cost = 64.0;
  scenario.restart_cost = 32.0;
  return scenario;
}

sim::CampaignSpec exact_spec(std::vector<sim::InjectedFault> faults,
                             double checkpoint_interval) {
  sim::CampaignSpec spec;
  spec.scenarios = {exact_scenario(std::move(faults))};
  sim::CampaignPolicy policy = sim::no_protection_policy();
  if (checkpoint_interval > 0.0) {
    policy = sim::periodic_checkpoint_policy(checkpoint_interval);
  }
  spec.policies = {policy};
  spec.runs_per_cell = 1;
  return spec;
}

TEST(CampaignValidation, RejectsMalformedSpecs) {
  sim::CampaignSpec empty;
  empty.policies = {sim::no_protection_policy()};
  empty.runs_per_cell = 1;
  EXPECT_THROW(sim::Campaign{empty}, InvalidArgument);

  sim::CampaignSpec no_runs = exact_spec({}, 0.0);
  no_runs.runs_per_cell = 0;
  EXPECT_THROW(sim::Campaign{no_runs}, InvalidArgument);

  sim::CampaignSpec dup_policies = exact_spec({}, 0.0);
  dup_policies.policies = {sim::no_protection_policy(),
                           sim::no_protection_policy()};
  EXPECT_THROW(sim::Campaign{dup_policies}, InvalidArgument);

  // Scripted faults must be time-ascending and on real nodes.
  sim::CampaignSpec descending = exact_spec({{200.0, 0, 1.0}, {100.0, 1, 1.0}},
                                            0.0);
  EXPECT_THROW(sim::Campaign{descending}, InvalidArgument);
  sim::CampaignSpec bad_node = exact_spec({{100.0, 7, 1.0}}, 0.0);
  EXPECT_THROW(sim::Campaign{bad_node}, InvalidArgument);

  sim::CampaignSpec wide = exact_spec({}, 0.0);
  wide.scenarios[0].job_width = 3;  // > node_count
  EXPECT_THROW(sim::Campaign{wide}, InvalidArgument);

  // Infinite costs, fault times and repairs are rejected up front, not
  // after every run has been simulated.
  const double inf = std::numeric_limits<double>::infinity();
  sim::CampaignSpec inf_checkpoint = exact_spec({}, 256.0);
  inf_checkpoint.scenarios[0].checkpoint_cost = inf;
  EXPECT_THROW(sim::Campaign{inf_checkpoint}, InvalidArgument);
  sim::CampaignSpec inf_restart = exact_spec({}, 256.0);
  inf_restart.scenarios[0].restart_cost = inf;
  EXPECT_THROW(sim::Campaign{inf_restart}, InvalidArgument);
  sim::CampaignSpec inf_repair = exact_spec({{100.0, 0, 1.0}, {200.0, 1, inf}},
                                            0.0);
  EXPECT_THROW(sim::Campaign{inf_repair}, InvalidArgument);
  sim::CampaignSpec inf_time = exact_spec({{100.0, 0, 1.0}, {inf, 1, 1.0}},
                                          0.0);
  EXPECT_THROW(sim::Campaign{inf_time}, InvalidArgument);
}

TEST(CampaignScenarioLibrary, CascadeIsStaggeredOverDistinctNodes) {
  const sim::CampaignScenario scenario = sim::staggered_cascade_scenario();
  const auto& faults = scenario.faults.scripted;
  // 21% of 72 nodes, rounded down.
  ASSERT_EQ(faults.size(), 15u);
  std::set<int> victims;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(faults[i].time, 3000.0 + 500.0 * static_cast<double>(i));
    EXPECT_EQ(faults[i].repair_seconds, 4.0 * 3600.0);
    victims.insert(faults[i].node);
  }
  EXPECT_EQ(victims.size(), faults.size());  // distinct nodes
}

TEST(CampaignScenarioLibrary, BurstsFailSimultaneously) {
  const sim::CampaignScenario scenario = sim::correlated_burst_scenario();
  const auto& faults = scenario.faults.scripted;
  ASSERT_EQ(faults.size(), 48u);  // 6 bursts x 8 nodes
  for (std::size_t b = 0; b < 6; ++b) {
    std::set<int> members;
    for (std::size_t j = 0; j < 8; ++j) {
      const sim::InjectedFault& f = faults[b * 8 + j];
      // The Fig 6c signature: exact-zero interarrivals within a burst.
      EXPECT_EQ(f.time, static_cast<double>(b + 1) * 2.0 * 3600.0);
      members.insert(f.node);
    }
    EXPECT_EQ(members.size(), 8u);
  }
}

TEST(CampaignScenarioLibrary, RenewalSchedulesRespectTheHorizon) {
  sim::CampaignSpec spec;
  spec.scenarios = {sim::weibull_renewal_scenario(8, 86400.0, 10.0 * 86400.0)};
  spec.policies = {sim::no_protection_policy()};
  spec.runs_per_cell = 2;
  const sim::Campaign campaign(spec);
  const auto schedule = campaign.schedule_for(0, 0);
  ASSERT_FALSE(schedule.empty());
  double last = 0.0;
  for (const sim::InjectedFault& f : schedule) {
    EXPECT_GE(f.time, last);
    EXPECT_LE(f.time, 10.0 * 86400.0);
    EXPECT_GE(f.node, 0);
    EXPECT_LT(f.node, 8);
    EXPECT_GE(f.repair_seconds, 0.0);
    last = f.time;
  }
  // Replicates draw distinct schedules from their own streams ...
  EXPECT_NE(campaign.schedule_for(0, 1), schedule);
  // ... and re-materializing is deterministic.
  EXPECT_EQ(campaign.schedule_for(0, 0), schedule);
}

TEST(CampaignScenarioLibrary, InfiniteRenewalHorizonRunsToCompletion) {
  sim::CampaignSpec spec;
  spec.scenarios = {sim::weibull_renewal_scenario(
      8, 86400.0, std::numeric_limits<double>::infinity())};
  spec.policies = {sim::no_protection_policy()};
  spec.runs_per_cell = 1;
  const sim::Campaign campaign(spec);
  // Faults are drawn as they are delivered, so the run ends with its
  // jobs; only a materialized schedule needs a finite horizon.
  EXPECT_THROW(campaign.schedule_for(0, 0), InvalidArgument);
  const sim::CampaignRunResult r = campaign.execute_run(0, 0);
  const sim::CampaignScenario& s = spec.scenarios.front();
  EXPECT_EQ(r.useful_work, static_cast<double>(s.job_count) * s.job_width *
                               s.job_work_seconds);
}

TEST(CampaignValidation, NewFieldsChangeTheFingerprintWhenSet) {
  sim::CampaignSpec spec = exact_spec({}, 0.0);
  const std::uint64_t base = sim::Campaign(spec).fingerprint();
  spec.scenarios[0].max_concurrent_jobs = 1;
  EXPECT_NE(sim::Campaign(spec).fingerprint(), base);
  sim::CampaignSpec adaptive;
  adaptive.scenarios = {sim::weibull_renewal_scenario(4)};
  adaptive.policies = {sim::hazard_aware_checkpoint_policy()};
  adaptive.runs_per_cell = 1;
  const std::uint64_t default_bounds = sim::Campaign(adaptive).fingerprint();
  adaptive.policies[0].hazard_aware->max_interval = 7200.0;
  EXPECT_NE(sim::Campaign(adaptive).fingerprint(), default_bounds);
}

TEST(CampaignScenarioLibrary, ReplayMirrorsTheTraceSystem) {
  const auto ds = synth::generate_lanl_trace(11);
  const sim::CampaignScenario scenario = sim::replay_scenario(ds, 20);
  const auto view = ds.view().for_system(20);
  ASSERT_EQ(scenario.faults.scripted.size(), view.size());
  EXPECT_EQ(scenario.faults.scripted.front().time, 0.0);  // offset to first
  for (const sim::InjectedFault& f : scenario.faults.scripted) {
    EXPECT_GE(f.node, 0);
    EXPECT_LT(static_cast<std::size_t>(f.node), scenario.node_count);
  }
  EXPECT_THROW(sim::replay_scenario(ds, 9999), ValidationError);
}

TEST(CampaignAccounting, UninterruptedRunAccountsExactly) {
  const sim::Campaign campaign(exact_spec({}, 256.0));
  const sim::CampaignRunResult r = campaign.execute_run(0, 0);
  // 4 segments of 256s, 3 checkpoint writes of 64s, width 2.
  EXPECT_EQ(r.makespan, 1024.0 + 3.0 * 64.0);
  EXPECT_EQ(r.useful_work, 2.0 * 1024.0);
  EXPECT_EQ(r.checkpoint_overhead, 2.0 * 3.0 * 64.0);
  EXPECT_EQ(r.wasted_work, 0.0);
  EXPECT_EQ(r.restart_overhead, 0.0);
  EXPECT_EQ(r.faults_injected, 0u);
  EXPECT_EQ(r.interruptions, 0u);
  EXPECT_EQ(r.waste_fraction(),
            (2.0 * 3.0 * 64.0) / (2.0 * 1024.0 + 2.0 * 3.0 * 64.0));
}

TEST(CampaignAccounting, KillAtCheckpointBoundaryLosesNothing) {
  // Fault lands exactly when the first checkpoint write completes
  // (t = 256 + 64): one cycle is saved, zero seconds are wasted.
  const sim::Campaign campaign(exact_spec({{320.0, 0, 1000.0}}, 256.0));
  const sim::CampaignRunResult r = campaign.execute_run(0, 0);
  EXPECT_EQ(r.faults_injected, 1u);
  EXPECT_EQ(r.faults_absorbed, 0u);
  EXPECT_EQ(r.interruptions, 1u);
  EXPECT_EQ(r.wasted_work, 0.0);
  // 256s saved at the kill + the 768s remainder completed later.
  EXPECT_EQ(r.useful_work, 2.0 * 1024.0);
  // 1 write before the kill + 2 writes in the remainder attempt.
  EXPECT_EQ(r.checkpoint_overhead, 2.0 * 3.0 * 64.0);
  EXPECT_EQ(r.restart_overhead, 2.0 * 32.0);
  // The gang needs both nodes: it waits for the 1000s repair, then runs
  // 32 (restart) + 768 + 2*64 seconds.
  EXPECT_EQ(r.makespan, 320.0 + 1000.0 + 32.0 + 768.0 + 2.0 * 64.0);
  EXPECT_EQ(r.downtime, 1000.0);
  EXPECT_EQ(r.repair_wait, 0.0);
}

TEST(CampaignAccounting, FaultOnDownNodeIsAbsorbed) {
  const sim::Campaign campaign(
      exact_spec({{320.0, 0, 1000.0}, {400.0, 0, 500.0}}, 256.0));
  const sim::CampaignRunResult r = campaign.execute_run(0, 0);
  EXPECT_EQ(r.faults_injected, 2u);
  EXPECT_EQ(r.faults_absorbed, 1u);
  // The absorbed fault changes nothing else.
  EXPECT_EQ(r.interruptions, 1u);
  EXPECT_EQ(r.downtime, 1000.0);
  EXPECT_EQ(r.makespan, 320.0 + 1000.0 + 32.0 + 768.0 + 2.0 * 64.0);
}

TEST(CampaignAccounting, SingleCrewQueuesTheSecondRepair) {
  sim::CampaignSpec spec = exact_spec(
      {{100.0, 0, 50.0}, {100.0, 1, 70.0}}, 0.0);
  spec.scenarios[0].repair_concurrency = 1;
  const sim::Campaign campaign(spec);
  const sim::CampaignRunResult r = campaign.execute_run(0, 0);
  EXPECT_EQ(r.faults_injected, 2u);
  EXPECT_EQ(r.interruptions, 1u);  // the second fault hits an idle node
  // No checkpointing: the first 100s are lost outright on both nodes.
  EXPECT_EQ(r.wasted_work, 2.0 * 100.0);
  // Node 1's repair waits 50s for the only crew.
  EXPECT_EQ(r.repair_wait, 50.0);
  EXPECT_EQ(r.downtime, 50.0 + (50.0 + 70.0));
  // Both nodes back at t=220; restart 32 + the full 1024s of work.
  EXPECT_EQ(r.makespan, 220.0 + 32.0 + 1024.0);
  EXPECT_EQ(r.useful_work, 2.0 * 1024.0);
  EXPECT_EQ(r.restart_overhead, 2.0 * 32.0);
}

TEST(CampaignCheckpointIo, RoundTripsExactly) {
  sim::CampaignSpec spec;
  spec.scenarios = {sim::staggered_cascade_scenario(12, 0.25, 500.0, 100.0,
                                                    1800.0)};
  spec.policies = sim::default_policy_set();
  spec.runs_per_cell = 3;
  const sim::Campaign campaign(spec);
  const sim::CampaignCheckpoint partial = campaign.run_partial(5);
  EXPECT_EQ(partial.completed.size(), 5u);
  EXPECT_FALSE(partial.complete());

  const std::string path = testing::TempDir() + "campaign_ckpt_test.txt";
  sim::save_campaign_checkpoint(path, partial);
  const sim::CampaignCheckpoint loaded = sim::load_campaign_checkpoint(path);
  EXPECT_EQ(loaded.fingerprint, partial.fingerprint);
  EXPECT_EQ(loaded.total_runs, partial.total_runs);
  // Doubles survive the text round trip to the last bit.
  EXPECT_EQ(loaded.completed, partial.completed);
}

TEST(CampaignCheckpointIo, RejectsForeignAndMalformedCheckpoints) {
  sim::CampaignSpec spec = exact_spec({{320.0, 0, 1000.0}}, 256.0);
  spec.runs_per_cell = 2;
  const sim::Campaign campaign(spec);
  const sim::CampaignCheckpoint partial = campaign.run_partial(1);

  // A spec with a different seed fingerprints differently: resuming from
  // the old checkpoint must be rejected, not silently mixed.
  sim::CampaignSpec other = spec;
  other.seed = 43;
  const sim::Campaign other_campaign(other);
  EXPECT_NE(other_campaign.fingerprint(), campaign.fingerprint());
  EXPECT_THROW(other_campaign.run(&partial), ValidationError);
  EXPECT_THROW(other_campaign.summarize(partial), ValidationError);
  // Summarizing an incomplete checkpoint is also an error.
  EXPECT_THROW(campaign.summarize(partial), ValidationError);

  EXPECT_THROW(sim::load_campaign_checkpoint("/nonexistent/ckpt.txt"),
               IoError);
  const std::string path = testing::TempDir() + "campaign_bad_ckpt.txt";
  {
    std::ofstream out(path);
    out << "not a campaign checkpoint\n";
  }
  EXPECT_THROW(sim::load_campaign_checkpoint(path), ParseError);
}

TEST(CampaignCheckpointIo, RejectsSignedAndOversizedIntegers) {
  const std::string path = testing::TempDir() + "campaign_int_ckpt.txt";
  const auto load_with = [&path](const std::string& completed,
                                 const std::string& run_line) {
    {
      std::ofstream out(path);
      out << "hpcfail-campaign-checkpoint v1\nfingerprint 1\ntotal_runs 1\n"
          << "completed " << completed << "\n"
          << run_line;
    }
    return sim::load_campaign_checkpoint(path);
  };
  const std::string tail = " 0 0 0 1 0 0 0 0 0 0\n";
  EXPECT_EQ(load_with("1", "run 0 0" + tail).completed.size(), 1u);
  // A cell or replicate past uint32 must not wrap onto a real one.
  EXPECT_THROW(load_with("1", "run 4294967296 0" + tail), ParseError);
  EXPECT_THROW(load_with("1", "run 0 4294967296" + tail), ParseError);
  // A negative count is malformed, not a huge reservation.
  EXPECT_THROW(load_with("-1", ""), ParseError);
  EXPECT_THROW(load_with("1", "run -1 0" + tail), ParseError);
  EXPECT_THROW(load_with("1", "run +0 0" + tail), ParseError);
  // No finished run holds a non-finite number: its summary would be wrong.
  for (const std::string bad : {"nan", "inf", "-inf"}) {
    EXPECT_THROW(load_with("1", "run 0 0 0 0 0 " + bad + " 0 0 0 0 0 0\n"),
                 ParseError);
    EXPECT_THROW(load_with("1", "run 0 0 0 0 0 1 0 0 0 0 0 " + bad + "\n"),
                 ParseError);
  }
}

TEST(CampaignCheckpointIo, FailedSaveKeepsThePreviousCheckpoint) {
  const sim::Campaign campaign(exact_spec({{320.0, 0, 1000.0}}, 256.0));
  const sim::CampaignCheckpoint partial = campaign.run_partial(1);
  const std::string path = testing::TempDir() + "campaign_atomic_ckpt.txt";
  sim::save_campaign_checkpoint(path, partial);
  // The temp file cannot be created: the save fails before touching the
  // saved checkpoint.
  const std::string tmp = path + ".tmp";
  ASSERT_EQ(::mkdir(tmp.c_str(), 0700), 0);
  sim::CampaignCheckpoint advanced = partial;
  advanced.completed.clear();
  EXPECT_THROW(sim::save_campaign_checkpoint(path, advanced), IoError);
  EXPECT_EQ(::rmdir(tmp.c_str()), 0);
  const sim::CampaignCheckpoint loaded = sim::load_campaign_checkpoint(path);
  EXPECT_EQ(loaded.completed, partial.completed);
  EXPECT_EQ(loaded.fingerprint, partial.fingerprint);
}

// The satellite bugfix regression, extending the PR 5 restart test to
// multi-run campaigns: interrupting a campaign mid-shard and resuming
// from the saved checkpoint must reproduce the uninterrupted campaign
// exactly under the sharded RNG — every double of every run.
TEST(CampaignResume, InterruptedCampaignEqualsUninterrupted) {
  sim::CampaignSpec spec;
  spec.scenarios = {sim::staggered_cascade_scenario(12, 0.25, 500.0, 100.0,
                                                    1800.0),
                    sim::weibull_renewal_scenario(8, 86400.0, 4.0 * 86400.0)};
  spec.policies = sim::default_policy_set();
  spec.runs_per_cell = 2;
  const sim::Campaign campaign(spec);
  const sim::CampaignResult full = campaign.run();
  ASSERT_EQ(full.runs.size(), campaign.total_runs());

  for (const std::size_t interrupt_after : {1u, 4u, 7u, 11u}) {
    const sim::CampaignCheckpoint partial =
        campaign.run_partial(interrupt_after);
    // Round-trip through the on-disk format, as a real resume would.
    const std::string path = testing::TempDir() + "campaign_resume_" +
                             std::to_string(interrupt_after) + ".txt";
    sim::save_campaign_checkpoint(path, partial);
    const sim::CampaignCheckpoint loaded = sim::load_campaign_checkpoint(path);
    const sim::CampaignResult resumed = campaign.run(&loaded);
    EXPECT_EQ(resumed.runs, full.runs)
        << "resume after " << interrupt_after << " runs diverged";
  }
}

TEST(CampaignSummaries, MatchTheReferenceAggregate) {
  sim::CampaignSpec spec;
  spec.scenarios = {sim::correlated_burst_scenario(16, 3, 4, 3600.0, 1800.0)};
  spec.policies = sim::default_policy_set();
  spec.runs_per_cell = 12;
  const sim::Campaign campaign(spec);
  const sim::CampaignResult result = campaign.run();
  ASSERT_EQ(result.cells.size(), campaign.cell_count());
  for (std::size_t cell = 0; cell < result.cells.size(); ++cell) {
    const sim::CampaignCellSummary& summary = result.cells[cell];
    const auto agg = testkit::ref_campaign_aggregate(
        std::span(result.runs).subspan(cell * spec.runs_per_cell,
                                       spec.runs_per_cell));
    // Bootstrap point estimates are the statistic of the original
    // sample — bit-identical to the naive loop.
    EXPECT_EQ(summary.makespan.point, agg.mean_makespan);
    EXPECT_EQ(summary.waste_fraction.point, agg.mean_waste_fraction);
    EXPECT_EQ(summary.interruptions.point, agg.mean_interruptions);
    EXPECT_EQ(summary.faults_injected, agg.faults_injected);
    EXPECT_EQ(summary.runs, spec.runs_per_cell);
    // The interval brackets its point.
    EXPECT_LE(summary.makespan.lo, summary.makespan.point);
    EXPECT_GE(summary.makespan.hi, summary.makespan.point);
  }
}

TEST(CampaignObs, CountersAndGaugesAccumulate) {
  obs::registry().reset();
  sim::CampaignSpec spec;
  spec.scenarios = {sim::correlated_burst_scenario(16, 3, 4, 3600.0, 1800.0)};
  spec.policies = {sim::periodic_checkpoint_policy(3600.0)};
  spec.runs_per_cell = 3;
  const sim::Campaign campaign(spec);
  const sim::CampaignResult result = campaign.run();
  EXPECT_EQ(obs::registry().counter("campaign.faults_injected").value(),
            result.total_faults_injected());
  EXPECT_GE(obs::registry().gauge("campaign.shard_ms").value(), 0.0);
  EXPECT_EQ(obs::registry().counter("campaign.resumes").value(), 0u);

  const sim::CampaignCheckpoint partial = campaign.run_partial(1);
  (void)campaign.run(&partial);
  EXPECT_EQ(obs::registry().counter("campaign.resumes").value(), 1u);
  obs::registry().reset();
}

}  // namespace
