#include "sim/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/lognormal.hpp"
#include "dist/weibull.hpp"
#include "stats/special.hpp"
#include "trace/index.hpp"

namespace hpcfail::sim {

namespace {

/// Weibull with the given shape scaled to the given mean:
/// mean = scale * Gamma(1 + 1/shape).
std::shared_ptr<const dist::Distribution> weibull_with_mean(double shape,
                                                            double mean) {
  return std::make_shared<dist::Weibull>(
      shape,
      mean / std::exp(stats::log_gamma_unchecked(1.0 + 1.0 / shape)));
}

/// Shared workload shape for the scripted scenarios: gang-scheduled
/// 4-wide jobs of a few hours each, enough of them that the fault window
/// overlaps execution.
void default_workload(CampaignScenario& scenario) {
  scenario.job_width = 4;
  scenario.job_work_seconds = 2.0 * 3600.0;
  scenario.job_count = 24;
  scenario.checkpoint_cost = 60.0;
  scenario.restart_cost = 120.0;
}

}  // namespace

FaultModel scripted_fault_model(std::vector<InjectedFault> faults) {
  FaultModel model;
  model.kind = FaultModelKind::scripted;
  model.scripted = std::move(faults);
  return model;
}

FaultModel renewal_fault_model(
    std::shared_ptr<const dist::Distribution> interarrival,
    std::shared_ptr<const dist::Distribution> repair) {
  HPCFAIL_EXPECTS(interarrival != nullptr,
                  "renewal fault model needs an interarrival distribution");
  FaultModel model;
  model.kind = FaultModelKind::renewal;
  model.renewal.push_back({std::move(interarrival), std::move(repair)});
  return model;
}

FaultModel renewal_fault_model(const dist::FitReport& interarrival_fit,
                               const dist::FitReport& repair_fit) {
  HPCFAIL_EXPECTS(!interarrival_fit.empty(),
                  "interarrival fit report has no successful fit");
  std::shared_ptr<const dist::Distribution> repair;
  if (!repair_fit.empty()) repair = repair_fit.best().model->clone();
  return renewal_fault_model(interarrival_fit.best().model->clone(),
                             std::move(repair));
}

FaultModel renewal_fault_model(std::span<const ClusterNodeConfig> nodes) {
  HPCFAIL_EXPECTS(!nodes.empty(), "need at least one node");
  FaultModel model;
  model.kind = FaultModelKind::renewal;
  model.renewal.reserve(nodes.size());
  for (const ClusterNodeConfig& n : nodes) {
    HPCFAIL_EXPECTS(n.mtbf_seconds > 0.0, "node MTBF must be positive");
    model.renewal.push_back(
        {weibull_with_mean(0.7, n.mtbf_seconds),
         std::make_shared<dist::LogNormal>(dist::LogNormal::from_mean_median(
             n.repair_mean_seconds, n.repair_median_seconds))});
  }
  return model;
}

std::vector<ClusterNodeConfig> heterogeneous_nodes(
    std::size_t node_count, double base_mtbf_seconds, double jitter_sigma,
    double hot_fraction, double hot_factor, std::uint64_t seed) {
  HPCFAIL_EXPECTS(node_count > 0, "need at least one node");
  HPCFAIL_EXPECTS(base_mtbf_seconds > 0.0, "MTBF must be positive");
  HPCFAIL_EXPECTS(hot_fraction >= 0.0 && hot_fraction <= 1.0,
                  "hot fraction must be in [0,1]");
  HPCFAIL_EXPECTS(hot_factor >= 1.0, "hot factor must be >= 1");
  Rng rng(seed);
  std::vector<ClusterNodeConfig> nodes;
  nodes.reserve(node_count);
  const auto hot_count = static_cast<std::size_t>(
      std::lround(hot_fraction * static_cast<double>(node_count)));
  for (std::size_t i = 0; i < node_count; ++i) {
    const double z = dist::standard_normal(rng);
    double mtbf = base_mtbf_seconds * std::exp(jitter_sigma * z);
    if (i < hot_count) mtbf /= hot_factor;
    ClusterNodeConfig n;
    n.mtbf_seconds = mtbf;
    n.repair_mean_seconds = 6.0 * 3600.0;    // Table 2: mean ~6 hours
    n.repair_median_seconds = 1.0 * 3600.0;  // median ~1 hour
    nodes.push_back(n);
  }
  return nodes;
}

CampaignScenario staggered_cascade_scenario(std::size_t node_count,
                                            double fail_fraction,
                                            double first_fault_at,
                                            double stagger_seconds,
                                            double repair_seconds) {
  HPCFAIL_EXPECTS(node_count > 0, "need at least one node");
  HPCFAIL_EXPECTS(fail_fraction > 0.0 && fail_fraction <= 1.0,
                  "fail fraction must be in (0,1]");
  HPCFAIL_EXPECTS(first_fault_at >= 0.0 && stagger_seconds >= 0.0,
                  "fault times must be non-negative");
  HPCFAIL_EXPECTS(repair_seconds >= 0.0, "repair must be non-negative");
  const auto failures = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::floor(fail_fraction * static_cast<double>(node_count))));
  std::vector<InjectedFault> faults;
  faults.reserve(failures);
  for (std::size_t i = 0; i < failures; ++i) {
    // Spread the victims evenly over the cluster (distinct nodes as long
    // as failures <= node_count, which fail_fraction <= 1 guarantees).
    const auto node = static_cast<int>(i * node_count / failures);
    faults.push_back(
        {first_fault_at + static_cast<double>(i) * stagger_seconds, node,
         repair_seconds});
  }
  CampaignScenario scenario;
  scenario.name = "cascade";
  scenario.node_count = node_count;
  scenario.faults = scripted_fault_model(std::move(faults));
  default_workload(scenario);
  return scenario;
}

CampaignScenario correlated_burst_scenario(std::size_t node_count,
                                           std::size_t bursts,
                                           std::size_t burst_width,
                                           double burst_spacing,
                                           double repair_seconds) {
  HPCFAIL_EXPECTS(node_count > 0, "need at least one node");
  HPCFAIL_EXPECTS(bursts > 0 && burst_width > 0, "need at least one burst");
  HPCFAIL_EXPECTS(burst_width <= node_count,
                  "burst cannot exceed the cluster");
  HPCFAIL_EXPECTS(burst_spacing > 0.0, "burst spacing must be positive");
  HPCFAIL_EXPECTS(repair_seconds >= 0.0, "repair must be non-negative");
  std::vector<InjectedFault> faults;
  faults.reserve(bursts * burst_width);
  for (std::size_t b = 0; b < bursts; ++b) {
    const double when = static_cast<double>(b + 1) * burst_spacing;
    for (std::size_t j = 0; j < burst_width; ++j) {
      // All burst members fail at the exact same instant (the Fig 6c
      // zero-interarrival signature); victims rotate across bursts.
      const auto node =
          static_cast<int>((b * burst_width + j) % node_count);
      faults.push_back({when, node, repair_seconds});
    }
  }
  CampaignScenario scenario;
  scenario.name = "bursts";
  scenario.node_count = node_count;
  scenario.faults = scripted_fault_model(std::move(faults));
  default_workload(scenario);
  return scenario;
}

CampaignScenario repair_contention_scenario(std::size_t node_count,
                                            std::size_t crews) {
  HPCFAIL_EXPECTS(node_count > 0, "need at least one node");
  HPCFAIL_EXPECTS(crews > 0, "contention needs a finite crew count");
  CampaignScenario scenario;
  scenario.name = "contention";
  scenario.node_count = node_count;
  scenario.repair_concurrency = crews;
  // Dense faults (per-node MTBF of 12 h over a 3-day horizon) against a
  // skewed lognormal repair: the queue is the bottleneck by design.
  scenario.horizon_seconds = 3.0 * 86400.0;
  scenario.faults = renewal_fault_model(
      std::make_shared<dist::Weibull>(1.0, 12.0 * 3600.0),
      std::make_shared<dist::LogNormal>(dist::LogNormal::from_mean_median(
          2.0 * 3600.0, 1.0 * 3600.0)));
  default_workload(scenario);
  return scenario;
}

CampaignScenario weibull_renewal_scenario(std::size_t node_count,
                                          double mtbf_seconds,
                                          double horizon_seconds) {
  HPCFAIL_EXPECTS(node_count > 0, "need at least one node");
  HPCFAIL_EXPECTS(mtbf_seconds > 0.0, "MTBF must be positive");
  HPCFAIL_EXPECTS(horizon_seconds > 0.0, "horizon must be positive");
  CampaignScenario scenario;
  scenario.name = "renewal";
  scenario.node_count = node_count;
  scenario.horizon_seconds = horizon_seconds;
  // The paper's shapes: decreasing-hazard Weibull interarrivals (shape
  // 0.7) scaled to the requested MTBF, Table 2's lognormal repairs.
  scenario.faults = renewal_fault_model(
      weibull_with_mean(0.7, mtbf_seconds),
      std::make_shared<dist::LogNormal>(dist::LogNormal::from_mean_median(
          6.0 * 3600.0, 1.0 * 3600.0)));
  default_workload(scenario);
  return scenario;
}

CampaignScenario replay_scenario(const trace::FailureDataset& dataset,
                                 int system_id, std::size_t node_count) {
  const trace::DatasetView view = dataset.view().for_system(system_id);
  if (view.empty()) {
    throw ValidationError("replay scenario: system " +
                          std::to_string(system_id) +
                          " has no records in the dataset");
  }
  const trace::ColumnsView records = view.records();
  const std::span<const Seconds> starts = records.starts();
  const std::span<const Seconds> ends = records.ends();
  const std::span<const int> nodes = records.node_ids();
  if (node_count == 0) {
    const auto max_node = *std::max_element(nodes.begin(), nodes.end());
    node_count = static_cast<std::size_t>(max_node) + 1;
  }
  const Seconds origin = starts.front();
  std::vector<InjectedFault> faults;
  faults.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    faults.push_back(
        {static_cast<double>(starts[i] - origin),
         static_cast<int>(static_cast<std::size_t>(nodes[i]) % node_count),
         static_cast<double>(ends[i] - starts[i])});
  }
  CampaignScenario scenario;
  scenario.name = "replay-" + std::to_string(system_id);
  scenario.node_count = node_count;
  scenario.faults = scripted_fault_model(std::move(faults));
  default_workload(scenario);
  scenario.job_width =
      std::min<int>(scenario.job_width, static_cast<int>(node_count));
  return scenario;
}

std::vector<CampaignScenario> default_scenarios() {
  return {staggered_cascade_scenario(), correlated_burst_scenario(),
          repair_contention_scenario(), weibull_renewal_scenario()};
}

}  // namespace hpcfail::sim
