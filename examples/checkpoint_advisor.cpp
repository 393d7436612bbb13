// Checkpoint advisor: what the paper's statistics mean for a practitioner.
//
// Fits the time-between-failure distribution of one system from the trace,
// then compares checkpoint intervals chosen three ways:
//   1. Young/Daly under the classical exponential (memoryless) assumption,
//   2. a simulation sweep against the *fitted* failure process,
//   3. the naive "checkpoint every hour" rule,
// reporting the makespan each policy actually yields on the fitted
// process. Each interval runs as a single-policy campaign of a month-long
// job on one node; one seed per stage, so every interval meets the same
// faults. EXPERIMENTS.md lists these numbers next to the ones the
// single-job loop gave before the campaign engine.
//
//   ./checkpoint_advisor [system_id] [checkpoint_cost_seconds]
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "analysis/interarrival.hpp"
#include "common/error.hpp"
#include "report/table.hpp"
#include "sim/campaign.hpp"
#include "sim/policy.hpp"
#include "sim/scenario.hpp"
#include "synth/generator.hpp"

int main(int argc, char** argv) {
  using namespace hpcfail;
  const int system_id = argc > 1 ? std::atoi(argv[1]) : 20;
  const double ckpt_cost = argc > 2 ? std::atof(argv[2]) : 600.0;

  const trace::FailureDataset dataset = synth::generate_lanl_trace(42);

  // System-wide failure process, late era (stable regime).
  analysis::InterarrivalQuery query;
  query.system_id = system_id;
  query.from = to_epoch(2000, 1, 1);
  analysis::InterarrivalReport tbf;
  try {
    tbf = analysis::interarrival_analysis(dataset, query);
  } catch (const Error&) {
    query.from.reset();  // short-lived system: use its whole life
    tbf = analysis::interarrival_analysis(dataset, query);
  }
  const double mtbf = tbf.summary.mean;
  std::cout << "System " << system_id << ": MTBF "
            << mtbf / 3600.0 << " h, fitted model "
            << tbf.best().model->describe() << " (C^2 "
            << tbf.summary.cv2 << ")\n\n";

  sim::CampaignScenario scenario;
  scenario.name = "month-job";  // a month-long simulation campaign
  scenario.node_count = 1;
  scenario.horizon_seconds = std::numeric_limits<double>::infinity();
  scenario.faults =
      sim::renewal_fault_model(tbf.best().model->clone(), nullptr);
  scenario.job_work_seconds = 30.0 * 86400.0;
  scenario.job_count = 1;
  scenario.checkpoint_cost = ckpt_cost;
  scenario.restart_cost = 300.0;
  const auto runs_at = [&scenario](double interval, std::size_t runs,
                                   std::uint64_t seed) {
    sim::CampaignSpec spec;
    spec.scenarios = {scenario};
    spec.policies = {sim::periodic_checkpoint_policy(interval)};
    spec.runs_per_cell = runs;
    spec.seed = seed;
    return sim::Campaign(spec).run();
  };

  const double daly = sim::daly_interval(mtbf, ckpt_cost);
  double swept = daly;
  double best = std::numeric_limits<double>::infinity();
  for (double f = 0.25; f <= 4.01; f *= std::sqrt(2.0)) {
    const double makespan = runs_at(daly * f, 48, 7).cells[0].makespan.point;
    if (makespan < best) {
      swept = daly * f;
      best = makespan;
    }
  }

  report::TextTable table({"policy", "interval (h)", "makespan (d)",
                           "lost work (d)", "interruptions"});
  const auto evaluate = [&](const std::string& name, double interval) {
    const sim::CampaignResult result = runs_at(interval, 64, 99);
    double lost = 0.0;
    for (const sim::CampaignRunResult& r : result.runs) {
      lost += r.wasted_work / static_cast<double>(result.runs.size());
    }
    table.add_row(name, {interval / 3600.0,
                         result.cells[0].makespan.point / 86400.0,
                         lost / 86400.0,
                         result.cells[0].interruptions.point});
  };
  evaluate("Young (exp. assumption)", sim::young_interval(mtbf, ckpt_cost));
  evaluate("Daly (exp. assumption)", daly);
  evaluate("simulated sweep (fitted model)", swept);
  evaluate("hourly checkpoints", 3600.0);
  table.render(std::cout);

  std::cout << "\nNote: the failure process is the fitted "
            << tbf.best().model->name()
            << " model, not an exponential;\ncompare the sweep's interval "
               "and makespan with Daly's to see what the\nmemoryless "
               "assumption costs.\n";
  return 0;
}
