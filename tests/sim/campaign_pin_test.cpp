// Pins the campaign engine to recorded results: the spec fingerprint,
// every replicate-0..3 injection schedule, and an FNV-1a digest of every
// run and every cell summary of one mixed campaign. The constants were
// recorded from the engine that materialized each run's whole fault
// schedule up front; the lazy fault sources must reproduce them bit for
// bit. A second pin covers clusters from 4 to 1000 nodes, recorded from
// the engine that scanned every node per dispatch. A mismatch prints the
// row the engine now produces.
#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/campaign.hpp"
#include "sim/policy.hpp"
#include "sim/scenario.hpp"
#include "synth/generator.hpp"

namespace {

using namespace hpcfail;

class Fnv {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 1099511628211ULL;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void text(const std::string& s) {
    u64(s.size());
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ULL;
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// The default CLI library plus a replay of a generated LANL system,
/// against the default policies and a Daly interval (non-integer, and
/// shorter than the 2-h jobs, so kills split mid-cycle).
sim::CampaignSpec pin_spec() {
  sim::CampaignSpec spec;
  spec.scenarios = sim::default_scenarios();
  spec.scenarios.push_back(
      sim::replay_scenario(synth::generate_lanl_trace(7), 20));
  spec.policies = sim::default_policy_set();
  spec.policies.push_back(sim::daly_checkpoint_policy(2.0 * 3600.0, 60.0));
  spec.runs_per_cell = 16;
  spec.seed = 42;
  return spec;
}

std::uint64_t runs_digest(const sim::CampaignResult& result, std::size_t cell,
                          std::size_t runs_per_cell) {
  Fnv d;
  for (std::size_t rep = 0; rep < runs_per_cell; ++rep) {
    const sim::CampaignRunResult& r = result.runs[cell * runs_per_cell + rep];
    d.u64(r.cell);
    d.u64(r.replicate);
    d.u64(r.faults_injected);
    d.u64(r.faults_absorbed);
    d.u64(r.interruptions);
    for (const double v : {r.makespan, r.useful_work, r.wasted_work,
                           r.checkpoint_overhead, r.restart_overhead,
                           r.downtime, r.repair_wait}) {
      d.f64(v);
    }
  }
  return d.value();
}

std::uint64_t summary_digest(const sim::CampaignCellSummary& c) {
  Fnv d;
  d.text(c.scenario);
  d.text(c.policy);
  d.u64(c.runs);
  d.u64(c.faults_injected);
  for (const stats::BootstrapResult* b :
       {&c.makespan, &c.waste_fraction, &c.interruptions}) {
    d.f64(b->point);
    d.f64(b->lo);
    d.f64(b->hi);
    d.f64(b->std_error);
    d.u64(b->replicates);
  }
  return d.value();
}

std::uint64_t schedule_digest(const std::vector<sim::InjectedFault>& faults) {
  Fnv d;
  d.u64(faults.size());
  for (const sim::InjectedFault& f : faults) {
    d.f64(f.time);
    d.u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(f.node)));
    d.f64(f.repair_seconds);
  }
  return d.value();
}

struct CellPin {
  const char* scenario;
  const char* policy;
  std::uint64_t runs;
  std::uint64_t summary;
  std::uint64_t schedules[4];
};

constexpr std::uint64_t kFingerprint = 7572129073801347951ULL;

constexpr CellPin kCells[] = {
    {"cascade", "none", 0x1ea359ba4b384cd6ULL, 0x6c8d05af0e5a215bULL,
     {0x2bd2395b58b53c53ULL, 0x2bd2395b58b53c53ULL,
      0x2bd2395b58b53c53ULL, 0x2bd2395b58b53c53ULL}},
    {"cascade", "hourly", 0x327770599ecc6547ULL, 0x8912933122144ff9ULL,
     {0x2bd2395b58b53c53ULL, 0x2bd2395b58b53c53ULL,
      0x2bd2395b58b53c53ULL, 0x2bd2395b58b53c53ULL}},
    {"cascade", "hourly-ranked", 0xb750ab68fd04fae3ULL, 0x67060ad9354af98fULL,
     {0x2bd2395b58b53c53ULL, 0x2bd2395b58b53c53ULL,
      0x2bd2395b58b53c53ULL, 0x2bd2395b58b53c53ULL}},
    {"cascade", "daly", 0xaa494e3c24ea472fULL, 0xd57bc4d90d729855ULL,
     {0x2bd2395b58b53c53ULL, 0x2bd2395b58b53c53ULL,
      0x2bd2395b58b53c53ULL, 0x2bd2395b58b53c53ULL}},
    {"bursts", "none", 0x3fef144c3c3ad6afULL, 0x24fa03d107c0337eULL,
     {0x1e414e01ddfb2763ULL, 0x1e414e01ddfb2763ULL,
      0x1e414e01ddfb2763ULL, 0x1e414e01ddfb2763ULL}},
    {"bursts", "hourly", 0x07f790a4cf763ee6ULL, 0x378b22738ff782baULL,
     {0x1e414e01ddfb2763ULL, 0x1e414e01ddfb2763ULL,
      0x1e414e01ddfb2763ULL, 0x1e414e01ddfb2763ULL}},
    {"bursts", "hourly-ranked", 0x74aff881d48d57c3ULL, 0xf4fe9d1b4faf7d7dULL,
     {0x1e414e01ddfb2763ULL, 0x1e414e01ddfb2763ULL,
      0x1e414e01ddfb2763ULL, 0x1e414e01ddfb2763ULL}},
    {"bursts", "daly", 0x2669790a979a2cc7ULL, 0xaa535b1987a04d46ULL,
     {0x1e414e01ddfb2763ULL, 0x1e414e01ddfb2763ULL,
      0x1e414e01ddfb2763ULL, 0x1e414e01ddfb2763ULL}},
    {"contention", "none", 0x5e9988edd48d5b6fULL, 0x30d9f376e825a8f6ULL,
     {0x59c0388af43b4b5aULL, 0x755087c07251c50bULL,
      0x2a5304e2e00b592bULL, 0xa398242b1b14301cULL}},
    {"contention", "hourly", 0x7823f30c7ea013b3ULL, 0xacc67291835ab5fdULL,
     {0xc9c6412fdbc6dd7aULL, 0x065b75438ecfbd19ULL,
      0x9bd16fd78a37d26bULL, 0x8fb0038c25ad9c25ULL}},
    {"contention", "hourly-ranked", 0x7a37a207a9f66499ULL,
     0x2bb27871bca73c77ULL,
     {0xe867d446583e8c89ULL, 0xd160d0c15577055aULL,
      0x8a1733fa3d701261ULL, 0xb2942274fa069f82ULL}},
    {"contention", "daly", 0x9df6e572aeaf4cb5ULL, 0x9604ea62bb4e1f2fULL,
     {0x5d5f9b59bcfe075dULL, 0x67505c7931cafa5eULL,
      0xd32c3e0d704b6039ULL, 0x66a21c338ac37e7cULL}},
    {"renewal", "none", 0x835ee0c47b90ed56ULL, 0xfac6b81ed7a5f92aULL,
     {0x3af7730052105dfbULL, 0x5bac6f27d1fd75eaULL,
      0xf626fb96c329fdf5ULL, 0xee192de6b1861ccbULL}},
    {"renewal", "hourly", 0xb5cd67060d91d26dULL, 0xe068b71414c11050ULL,
     {0xb1eaa48dd80b556fULL, 0x95c844aa7a146f6aULL,
      0x629a6a8a1e9c4530ULL, 0x036f1db79ec296e3ULL}},
    {"renewal", "hourly-ranked", 0xb8fcafe7f1ead913ULL, 0xd2f37950dc103036ULL,
     {0x10cf1c717beaec4bULL, 0x5d932e48dc4100edULL,
      0xc9977b0b4a22bbedULL, 0x4b141c502fb1a42eULL}},
    {"renewal", "daly", 0xa1433f4d873ee9e1ULL, 0x1e7b537e8c22f2a4ULL,
     {0x7aad2ede4f0e1949ULL, 0xdd7691f9075e631dULL,
      0x91036c966f4eaa89ULL, 0x418bd5763ab6719fULL}},
    {"replay-20", "none", 0x28125edc8239ce2cULL, 0x7697e18d607942adULL,
     {0xed6638b5ad83d7ecULL, 0xed6638b5ad83d7ecULL,
      0xed6638b5ad83d7ecULL, 0xed6638b5ad83d7ecULL}},
    {"replay-20", "hourly", 0x8bd39bd69344368cULL, 0x12b9cea210e0bfd9ULL,
     {0xed6638b5ad83d7ecULL, 0xed6638b5ad83d7ecULL,
      0xed6638b5ad83d7ecULL, 0xed6638b5ad83d7ecULL}},
    {"replay-20", "hourly-ranked", 0x7d7c4c40b57cc013ULL, 0x56814dbbf92e14d0ULL,
     {0xed6638b5ad83d7ecULL, 0xed6638b5ad83d7ecULL,
      0xed6638b5ad83d7ecULL, 0xed6638b5ad83d7ecULL}},
    {"replay-20", "daly", 0x8b2fa325fe2ac973ULL, 0x2dfaffe2e3822f55ULL,
     {0xed6638b5ad83d7ecULL, 0xed6638b5ad83d7ecULL,
      0xed6638b5ad83d7ecULL, 0xed6638b5ad83d7ecULL}},
};

std::string hex(std::uint64_t v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buffer;
}

TEST(CampaignPin, FingerprintMatchesTheRecordedSpec) {
  const sim::Campaign campaign(pin_spec());
  EXPECT_EQ(campaign.fingerprint(), kFingerprint)
      << "now " << campaign.fingerprint() << "ULL";
}

TEST(CampaignPin, SchedulesMatchTheRecordedDraws) {
  const sim::Campaign campaign(pin_spec());
  ASSERT_EQ(campaign.cell_count(), std::size(kCells));
  for (std::size_t cell = 0; cell < campaign.cell_count(); ++cell) {
    for (std::size_t r = 0; r < 4; ++r) {
      const std::uint64_t now = schedule_digest(campaign.schedule_for(cell, r));
      EXPECT_EQ(now, kCells[cell].schedules[r])
          << "cell " << cell << " replicate " << r << " now " << hex(now);
    }
  }
}

// The runs and summaries of contention and renewal under hourly-ranked
// were re-recorded once ranked placement ordered nodes by their expected
// rate: on a shared renewal model every node scores the same, so ranked
// placement takes the lowest free node ids. Their schedules never moved.
TEST(CampaignPin, RunsAndSummariesMatchTheRecordedEngine) {
  const sim::Campaign campaign(pin_spec());
  const sim::CampaignResult result = campaign.run();
  ASSERT_EQ(campaign.cell_count(), std::size(kCells));
  for (std::size_t cell = 0; cell < campaign.cell_count(); ++cell) {
    const sim::CampaignCellSummary& summary = result.cells[cell];
    const CellPin& pin = kCells[cell];
    ASSERT_EQ(summary.scenario, pin.scenario);
    ASSERT_EQ(summary.policy, pin.policy);
    const std::uint64_t runs =
        runs_digest(result, cell, campaign.spec().runs_per_cell);
    const std::uint64_t cell_summary = summary_digest(summary);
    EXPECT_EQ(runs, pin.runs) << "cell " << cell << " runs now " << hex(runs);
    EXPECT_EQ(cell_summary, pin.summary)
        << "cell " << cell << " summary now " << hex(cell_summary);
  }
}

/// The default scenario shapes at `nodes` nodes (bursts `min(8, nodes)`
/// wide), plus the renewal scenario capped at 3 concurrent jobs, against
/// the default policies.
sim::CampaignSpec wide_spec(std::size_t nodes) {
  const std::size_t burst = std::min<std::size_t>(8, nodes);
  sim::CampaignScenario capped = sim::weibull_renewal_scenario(nodes);
  capped.name = "renewal-capped";
  capped.max_concurrent_jobs = 3;
  sim::CampaignSpec spec;
  spec.scenarios.push_back(sim::staggered_cascade_scenario(nodes));
  spec.scenarios.push_back(sim::correlated_burst_scenario(nodes, 6, burst));
  spec.scenarios.push_back(sim::repair_contention_scenario(nodes));
  spec.scenarios.push_back(sim::weibull_renewal_scenario(nodes));
  spec.scenarios.push_back(std::move(capped));
  spec.policies = sim::default_policy_set();
  spec.runs_per_cell = 16;
  spec.seed = 9;
  return spec;
}

struct WidePin {
  std::size_t nodes;
  std::uint64_t digest;  ///< every cell's runs and summary digests, in order
};

// One job's width, both sides of a 64-node word boundary, two words and
// a ragged third, and a cluster far wider than any default scenario.
constexpr WidePin kWide[] = {
    {4, 0xeea63e96de5d28efULL},
    {63, 0x2ac4b0c63466fb73ULL},
    {64, 0x3fdb47f0a26f9d77ULL},
    {65, 0x8c93d74563836dd4ULL},
    {128, 0x82eac3358f51183bULL},
    {129, 0x80e8073cc748f1feULL},
    {1000, 0xaacbcb70d9a940e1ULL},
};

TEST(CampaignPin, WideClustersMatchTheParentEngine) {
  for (const WidePin& pin : kWide) {
    const sim::Campaign campaign(wide_spec(pin.nodes));
    const sim::CampaignResult result = campaign.run();
    Fnv d;
    for (std::size_t cell = 0; cell < campaign.cell_count(); ++cell) {
      d.u64(runs_digest(result, cell, campaign.spec().runs_per_cell));
      d.u64(summary_digest(result.cells[cell]));
    }
    EXPECT_EQ(d.value(), pin.digest)
        << pin.nodes << " nodes now " << hex(d.value());
  }
}

}  // namespace
