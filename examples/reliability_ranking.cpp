// Reliability-aware node selection (Section 5.1's motivation).
//
// Ranks the nodes of one system by observed failure rate, shows the
// graphics/front-end hot spots, then quantifies the payoff with a
// campaign: random placement vs placing jobs on the most reliable
// available nodes, each as a single-policy campaign at one seed so both
// meet the same faults.
//
//   ./reliability_ranking [system_id]
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "analysis/outliers.hpp"
#include "analysis/rates.hpp"
#include "report/ascii_chart.hpp"
#include "report/table.hpp"
#include "sim/campaign.hpp"
#include "sim/policy.hpp"
#include "sim/scenario.hpp"
#include "synth/generator.hpp"

int main(int argc, char** argv) {
  using namespace hpcfail;
  const int system_id = argc > 1 ? std::atoi(argv[1]) : 20;

  const trace::FailureDataset dataset = synth::generate_lanl_trace(42);
  const auto report = analysis::node_distribution(
      dataset, trace::SystemCatalog::lanl(), system_id);

  // Top ten most failure-prone nodes.
  auto ranked = report.per_node;
  std::sort(ranked.begin(), ranked.end(),
            [](const analysis::NodeCount& a, const analysis::NodeCount& b) {
              return a.failures > b.failures;
            });
  std::vector<std::pair<std::string, double>> bars;
  for (std::size_t i = 0; i < std::min<std::size_t>(10, ranked.size());
       ++i) {
    bars.emplace_back("node " + std::to_string(ranked[i].node_id) + " (" +
                          trace::to_string(ranked[i].workload) + ")",
                      static_cast<double>(ranked[i].failures));
  }
  report::bar_chart(std::cout,
                    "most failure-prone nodes of system " +
                        std::to_string(system_id),
                    bars);
  std::cout << "\ngraphics nodes: " << report.graphics_node_fraction * 100.0
            << "% of nodes, " << report.graphics_failure_fraction * 100.0
            << "% of failures\n\n";

  // Which of those are *statistically* hot, not just unlucky? Poisson
  // test against each node's exposure, Bonferroni-corrected.
  const auto outliers = analysis::node_outlier_analysis(
      dataset, trace::SystemCatalog::lanl(), system_id);
  std::cout << outliers.significant_count
            << " node(s) fail significantly more than their exposure "
               "predicts (alpha "
            << outliers.alpha << ", Bonferroni):\n";
  for (const auto& n : outliers.nodes) {
    if (!n.significant) continue;
    std::cout << "  node " << n.node_id << " ("
              << trace::to_string(n.workload) << "): " << n.failures
              << " failures vs " << n.expected
              << " expected, p = " << n.p_value << "\n";
  }
  std::cout << "\n";

  // Policy payoff on a synthetic 64-node cluster with the same kind of
  // heterogeneity, at half load so the scheduler has slack.
  sim::CampaignScenario scenario;
  scenario.name = "hot-tail";
  scenario.node_count = 64;
  scenario.horizon_seconds = std::numeric_limits<double>::infinity();
  scenario.faults = sim::renewal_fault_model(
      sim::heterogeneous_nodes(64, 20.0 * 86400.0, 0.3, 0.08, 5.0, 99));
  scenario.job_width = 8;
  scenario.job_work_seconds = 24.0 * 3600.0;
  scenario.job_count = 200;
  scenario.max_concurrent_jobs = 4;

  report::TextTable table({"placement policy", "makespan (d)",
                           "wasted work (%)", "job interruptions"});
  for (const auto& [name, policy] :
       {std::pair{"random", sim::no_protection_policy()},
        std::pair{"reliability-ranked", sim::reliability_ranked_policy()}}) {
    sim::CampaignSpec spec;
    spec.scenarios = {scenario};
    spec.policies = {policy};
    spec.runs_per_cell = 1;
    spec.seed = 5;
    const sim::CampaignRunResult run = sim::Campaign(spec).execute_run(0, 0);
    table.add_row(name, {run.makespan / 86400.0, run.waste_fraction() * 100.0,
                         static_cast<double>(run.interruptions)});
  }
  table.render(std::cout);
  return 0;
}
