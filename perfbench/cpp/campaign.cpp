// campaign: the `hpcfail campaign` default scenario library plus a
// trace-replay scenario of a generated LANL trace (system 20), crossed
// with the default policy set {none, hourly, hourly-ranked}, with enough
// replicates for ~2M injected faults, at set_parallelism(4). One op is
// one whole Campaign::run().
//
// Checks: every timed run's results digest equals the first one's; runs
// re-executed at 1 thread equal the 4-thread ones; and summarizing the
// runs at 1 thread gives the same digest.
//
// Set-up (timed, median of 15): generate the LANL trace (x1) and build
// and validate the campaign.
#include <iostream>
#include <memory>
#include <vector>

#include "common/thread_pool.hpp"
#include "harness.hpp"
#include "sim/campaign.hpp"
#include "sim/policy.hpp"
#include "sim/scenario.hpp"
#include "synth/generator.hpp"

namespace perfbench {
namespace {

using namespace hpcfail;

constexpr unsigned kThreads = 4;
constexpr int kReplaySystem = 20;  // the CLI's --replay-system default
constexpr std::size_t kSampleStride = 8;
// One replicate of all 15 cells injects ~250 faults, so 8000 replicates
// make ~2M. A fixed count keeps the work per campaign the same for every
// seed; sizing it from a probe replicate made it swing 2x between seeds.
constexpr std::size_t kRunsPerCell = 8000;

std::uint64_t runs_digest(const std::vector<sim::CampaignRunResult>& runs) {
  Digest d;
  for (const sim::CampaignRunResult& r : runs) {
    d.pod(r.cell);
    d.pod(r.replicate);
    d.pod(r.faults_injected);
    d.pod(r.faults_absorbed);
    d.pod(r.interruptions);
    for (const double v : {r.makespan, r.useful_work, r.wasted_work,
                           r.checkpoint_overhead, r.restart_overhead,
                           r.downtime, r.repair_wait}) {
      d.pod(v);
    }
  }
  return d.value();
}

std::uint64_t result_digest(const sim::CampaignResult& result) {
  Digest d;
  d.pod(runs_digest(result.runs));
  for (const sim::CampaignCellSummary& c : result.cells) {
    d.text(c.scenario);
    d.text(c.policy);
    d.pod(c.runs);
    d.pod(c.faults_injected);
    for (const stats::BootstrapResult* b :
         {&c.makespan, &c.waste_fraction, &c.interruptions}) {
      d.pod(b->point);
      d.pod(b->lo);
      d.pod(b->hi);
      d.pod(b->std_error);
    }
  }
  return d.value();
}

sim::CampaignSpec make_spec(std::uint64_t seed, std::size_t runs_per_cell) {
  sim::CampaignSpec spec;
  spec.scenarios = sim::default_scenarios();
  const trace::FailureDataset lanl = synth::generate_lanl_trace(seed);
  spec.scenarios.push_back(sim::replay_scenario(lanl, kReplaySystem));
  spec.policies = sim::default_policy_set();
  spec.seed = seed;
  spec.runs_per_cell = runs_per_cell;
  return spec;
}

}  // namespace

Outcome run_campaign(const Options& options, Tracer& tracer) {
  const std::size_t runs_per_cell = options.tiny ? 80 : kRunsPerCell;
  Outcome outcome;

  set_parallelism(kThreads);
  std::unique_ptr<sim::Campaign> campaign;
  const double setup_s = timed_setup(15, campaign, [&] {
    return std::make_unique<sim::Campaign>(
        make_spec(options.seed, runs_per_cell));
  });
  const sim::CampaignSpec& spec = campaign->spec();

  // Warm-up: an untimed campaign with a tenth of the replicates.
  (void)sim::Campaign(make_spec(options.seed, runs_per_cell / 10)).run();

  // Timed campaigns; the first one's results are the reference.
  sim::CampaignResult first;
  std::uint64_t digest = 0;
  std::vector<double> walls;
  const auto start = Clock::now();
  for (std::uint64_t op = 0; op < 2 || seconds_since(start) < options.seconds;
       ++op) {
    const std::int64_t span_start = now_ns();
    const auto t = Clock::now();
    sim::CampaignResult result = campaign->run();
    walls.push_back(seconds_since(t));
    tracer.record("sim.campaign_run", op, span_start, now_ns());
    if (options.corrupt && op == 1) result.runs.front().interruptions += 1;
    ++outcome.attempted;
    if (op == 0) {
      first = std::move(result);
      digest = result_digest(first);
      continue;
    }
    outcome.check(result_digest(result) == digest,
                  "campaign " + std::to_string(op) +
                      ": results digest differs from the first");
  }
  const std::uint64_t faults = first.total_faults_injected();

  // The 1-thread reference, compared run by run with the first timed
  // campaign's 4-thread results and then summarized at 1 thread. The
  // untraced run re-executes every kSampleStride-th replicate of every
  // cell, which keeps the check inside the run budget; the traced run
  // re-executes every run, on this thread, and so also times each one.
  set_parallelism(1);
  const std::size_t stride = tracer.enabled() ? 1 : kSampleStride;
  std::vector<double> run_walls;
  bool runs_match = true;
  for (std::size_t cell = 0; cell < campaign->cell_count(); ++cell) {
    for (std::size_t rep = 0; rep < spec.runs_per_cell; rep += stride) {
      const std::size_t index = cell * spec.runs_per_cell + rep;
      SpanScope s(tracer, "sim.execute_run", index);
      const auto t = Clock::now();
      const sim::CampaignRunResult r = campaign->execute_run(cell, rep);
      run_walls.push_back(seconds_since(t));
      runs_match = runs_match && r == first.runs[index];
    }
  }
  outcome.check(runs_match, "a run at 1 thread differs from 4 threads");
  sim::CampaignCheckpoint checkpoint;
  checkpoint.fingerprint = campaign->fingerprint();
  checkpoint.total_runs = campaign->total_runs();
  checkpoint.completed = first.runs;
  std::uint64_t serial_digest = 0;
  const auto assemble_start = Clock::now();
  {
    SpanScope s(tracer, "sim.assemble", 0);
    serial_digest = result_digest(campaign->summarize(checkpoint));
  }
  const double assemble_s = seconds_since(assemble_start);
  set_parallelism(kThreads);
  outcome.check(serial_digest == digest,
                "summary digest at 1 thread differs from 4 threads");

  std::cerr << "campaign: " << campaign->total_runs() << " runs, " << faults
            << " faults per campaign, " << walls.size() << " campaigns, median "
            << median(walls) << " s\n";
  if (!options.trace) {
    outcome.add("setup_s", setup_s, "s");
    outcome.add("throughput_per_s",
                static_cast<double>(faults) / median(walls), "1/s");
    outcome.add("op_p50_ms", median(walls) * 1e3, "ms");
    outcome.add("peak_rss_mb", peak_rss_mb(), "MB");
    return outcome;
  }
  double serial_s = 0.0;
  for (const double w : run_walls) serial_s += w;
  outcome.add("sim.run_p50_ms", median(run_walls) * 1e3, "ms");
  outcome.add("sim.run_p99_ms", quantile(run_walls, 0.99) * 1e3, "ms");
  outcome.add("sim.assemble_s", assemble_s, "s");
  outcome.add("sim.parallel_efficiency",
              serial_s / (static_cast<double>(kThreads) * median(walls)),
              "ratio");
  outcome.add("sim.faults", static_cast<double>(faults), "count");
  return outcome;
}

}  // namespace perfbench
