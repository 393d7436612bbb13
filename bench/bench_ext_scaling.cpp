// Extension: the scaling question the paper's Fig 2(b) finding feeds.
//
// "Failure rates are roughly proportional to the number of processors"
// means a machine 100x larger fails 100x more often. We build a custom
// catalog of hypothetical clusters from 64 to 2048 nodes with identical
// per-node reliability, generate traces, verify the linear-scaling
// conclusion quantitatively (log-log slope ~ 1), and extrapolate to a
// petascale machine: its system MTBF in minutes, and the utilization
// ceiling checkpoint/restart can sustain there.
#include <cmath>
#include <iostream>
#include <vector>

#include "common/strings.hpp"
#include "report/table.hpp"
#include "sim/policy.hpp"
#include "synth/generator.hpp"
#include "trace/index.hpp"

namespace {

using namespace hpcfail;

// A hypothetical type-F-like cluster with `nodes` 2-way nodes, in
// production for two years.
trace::SystemInfo make_system(int id, int nodes) {
  trace::SystemInfo sys;
  sys.id = id;
  sys.hw_type = 'F';
  sys.numa = false;
  sys.nodes = nodes;
  sys.procs = nodes * 2;
  sys.categories = {{0, nodes, 2, 4.0, 1, to_epoch(2004, 1, 1),
                     to_epoch(2006, 1, 1)}};
  return sys;
}

}  // namespace

int main() {
  constexpr double kFailuresPerNodeYear = 5.0;

  std::vector<trace::SystemInfo> systems;
  synth::ScenarioConfig scenario;
  scenario.seed = 99;
  const int sizes[] = {64, 128, 256, 512, 1024, 2048};
  int id = 1;
  for (const int nodes : sizes) {
    systems.push_back(make_system(id, nodes));
    synth::SystemScenario s;
    s.system_id = id;
    s.failures_per_year = kFailuresPerNodeYear * nodes;
    s.lifecycle.shape = synth::LifecycleShape::burn_in;
    s.lifecycle.amplitude = 0.0;  // steady state: isolate pure scaling
    scenario.systems.push_back(s);
    ++id;
  }
  const trace::SystemCatalog catalog(systems);
  const synth::TraceGenerator generator(catalog, scenario);
  const trace::FailureDataset dataset = generator.generate();

  std::cout << "=== extension: failure-rate scaling and the petascale "
               "projection ===\n\n";
  report::TextTable table({"nodes", "failures/yr", "system MTBF (h)"});
  std::vector<double> log_nodes;
  std::vector<double> log_rate;
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    const auto sys_data = dataset.view().for_system(static_cast<int>(i) + 1);
    const double years =
        catalog.system(static_cast<int>(i) + 1).production_years();
    const double rate = static_cast<double>(sys_data.size()) / years;
    table.add_row(std::to_string(sizes[i]),
                  {rate, years * 8766.0 / static_cast<double>(
                                              sys_data.size())},
                  4);
    log_nodes.push_back(std::log(static_cast<double>(sizes[i])));
    log_rate.push_back(std::log(rate));
  }
  table.render(std::cout);

  // Least-squares slope of log(rate) vs log(nodes).
  const auto n = static_cast<double>(log_nodes.size());
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < log_nodes.size(); ++i) {
    mx += log_nodes[i];
    my += log_rate[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < log_nodes.size(); ++i) {
    sxy += (log_nodes[i] - mx) * (log_rate[i] - my);
    sxx += (log_nodes[i] - mx) * (log_nodes[i] - mx);
  }
  const double slope = sxy / sxx;
  std::cout << "\nlog-log slope of failure rate vs size: "
            << format_double(slope, 4)
            << " (1.0 = the paper's linear scaling)\n\n";

  // Project a petascale machine and its checkpointing ceiling.
  constexpr double kPetaNodes = 100000.0;
  const double peta_rate = kFailuresPerNodeYear * kPetaNodes;  // per year
  const double peta_mtbf_s = 365.2425 * 86400.0 / peta_rate;
  std::cout << "projected " << static_cast<int>(kPetaNodes)
            << "-node machine at the same per-node rate: one failure "
               "every "
            << format_double(peta_mtbf_s / 60.0, 3) << " minutes\n";
  report::TextTable ceiling({"checkpoint cost (s)", "Daly interval (min)",
                             "utilization ceiling %"});
  for (const double cost : {30.0, 120.0, 600.0}) {
    if (cost >= 2.0 * peta_mtbf_s) {
      ceiling.add_row(format_double(cost, 4), {0.0, 0.0});
      continue;
    }
    const double tau = sim::daly_interval(peta_mtbf_s, cost);
    // Fraction of wall-clock doing useful work, first order:
    // tau / (tau + cost + expected loss per interval).
    const double loss = tau / 2.0 * (tau + cost) / peta_mtbf_s;
    const double utilization = tau / (tau + cost + loss);
    ceiling.add_row(format_double(cost, 4),
                    {tau / 60.0, 100.0 * utilization}, 4);
  }
  ceiling.render(std::cout);
  std::cout << "\nreading: linear scaling is benign per node but brutal "
               "per system --\nat petascale the machine fails faster than "
               "expensive checkpoints can be\nwritten, which is exactly "
               "why this data (and its distributional shape)\nmattered to "
               "the exascale resilience debate.\n";
  return 0;
}
