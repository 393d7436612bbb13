// Ablation: does the exponential-TBF assumption hurt a checkpointing
// system when failures actually follow the paper's decreasing-hazard
// Weibull (shape 0.7)?
//
// For a grid of MTBF x checkpoint-cost settings we compare the makespan
// of a month-long job on one node under three interval policies, all
// evaluated against Weibull(0.7) failures:
//   * Daly's interval computed from the MTBF (the exponential assumption),
//   * the interval found by sweeping simulations of the true process,
//   * the hazard-aware rule tau(s) = sqrt(2C / h(s)).
// Every policy runs as its own single-policy campaign at one seed, so all
// of them meet the same faults (common random numbers).
//
// The result is itself a finding: the makespan curve is extremely flat
// around the optimum, so Daly's memoryless formula remains near-optimal
// even though the failure process is demonstrably not exponential --
// interval *selection* is robust to the modeling error the paper exposes,
// even while availability *prediction* is not (cf. the C^2 mismatch).
// EXPERIMENTS.md compares these numbers with the single-job loop this
// bench ran on before the campaign engine; the penalty column stays
// within 0.05% either way.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <vector>

#include "common/strings.hpp"
#include "dist/weibull.hpp"
#include "report/table.hpp"
#include "sim/campaign.hpp"
#include "sim/policy.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace hpcfail;

/// Mean makespan of a single-policy campaign.
double mean_makespan(const sim::CampaignScenario& scenario,
                     sim::CampaignPolicy policy, std::size_t runs,
                     std::uint64_t seed) {
  sim::CampaignSpec spec;
  spec.scenarios = {scenario};
  spec.policies = {std::move(policy)};
  spec.runs_per_cell = runs;
  spec.seed = seed;
  return sim::Campaign(spec).run().cells.front().makespan.point;
}

}  // namespace

int main() {
  constexpr double kDay = 86400.0;

  report::TextTable table({"MTBF (h)", "ckpt cost (s)", "Daly interval (h)",
                           "swept interval (h)", "wall Daly (d)",
                           "wall swept (d)", "wall adaptive (d)",
                           "penalty %"});

  for (const double mtbf_hours : {6.0, 24.0, 96.0}) {
    for (const double cost : {60.0, 600.0, 1800.0}) {
      const double mtbf = mtbf_hours * 3600.0;
      const double scale = mtbf / std::exp(std::lgamma(1.0 + 1.0 / 0.7));

      sim::CampaignScenario scenario;
      scenario.name = "month-job";
      scenario.node_count = 1;
      scenario.horizon_seconds = std::numeric_limits<double>::infinity();
      scenario.faults = sim::renewal_fault_model(
          std::make_shared<dist::Weibull>(0.7, scale), nullptr);
      scenario.job_work_seconds = 30.0 * kDay;
      scenario.job_count = 1;
      scenario.checkpoint_cost = cost;
      scenario.restart_cost = 120.0;

      const double daly = sim::daly_interval(mtbf, cost);
      double swept = 0.0;
      double best = std::numeric_limits<double>::infinity();
      for (double f = 0.25; f <= 6.01; f *= std::sqrt(2.0)) {
        const double wall = mean_makespan(
            scenario, sim::periodic_checkpoint_policy(daly * f), 48, 17);
        if (wall < best) {
          swept = daly * f;
          best = wall;
        }
      }

      const double wall_daly = mean_makespan(
          scenario, sim::periodic_checkpoint_policy(daly), 96, 4242);
      const double wall_swept = mean_makespan(
          scenario, sim::periodic_checkpoint_policy(swept), 96, 4242);
      // Third policy: chase the instantaneous hazard (local Young).
      const double wall_adaptive = mean_makespan(
          scenario, sim::hazard_aware_checkpoint_policy(), 96, 4242);
      table.add_row(
          format_double(mtbf_hours, 3),
          {cost, daly / 3600.0, swept / 3600.0, wall_daly / kDay,
           wall_swept / kDay, wall_adaptive / kDay,
           100.0 * (wall_daly - wall_swept) / wall_swept});
    }
  }
  std::cout << "=== ablation: exponential-assumption checkpoint intervals "
               "vs the\n    fitted decreasing-hazard Weibull (shape 0.7) "
               "===\n\n";
  table.render(std::cout);
  std::cout << "\nreading: the penalty column is the extra wall-clock "
               "paid by trusting the\nmemoryless assumption for interval "
               "selection. It is consistently near\nzero: the cost curve "
               "is flat around the optimum, so Daly's formula is\nrobust "
               "to the paper's non-exponential reality. The 'adaptive' "
               "column\nchases the instantaneous Weibull hazard "
               "(tau = sqrt(2C/h(t))) and does\n*not* beat the fixed "
               "interval either -- its dense post-failure\ncheckpoints "
               "are wasted. The assumption bites elsewhere (failure\n"
               "clustering, availability prediction), not in interval "
               "selection.\n";
  return 0;
}
