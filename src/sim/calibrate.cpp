#include "sim/calibrate.hpp"

#include <map>

#include "common/error.hpp"
#include "obs/timer.hpp"
#include "stats/descriptive.hpp"
#include "trace/index.hpp"

namespace hpcfail::sim {

std::vector<ClusterNodeConfig> calibrate_nodes(
    const trace::FailureDataset& dataset,
    const trace::SystemCatalog& catalog, int system_id) {
  hpcfail::obs::ScopedTimer timer("sim.calibrate");
  const trace::SystemInfo& sys = catalog.system(system_id);
  const trace::DatasetView scoped = dataset.view().for_system(system_id);
  HPCFAIL_EXPECTS(!scoped.empty(),
                  "calibration: system has no failures in the dataset");

  // Failure counts come off the index; repair times need the durations,
  // so gather those per node in one pass over the scoped span.
  const std::map<int, std::size_t> counts = scoped.failures_per_node();
  std::map<int, std::vector<double>> repairs;
  for (const trace::FailureRecord& r : scoped.records()) {
    repairs[r.node_id].push_back(r.downtime_minutes());
  }

  const std::vector<double> all_minutes = scoped.repair_times_minutes();
  const auto system_wide = hpcfail::stats::summarize(all_minutes);

  std::vector<ClusterNodeConfig> nodes;
  nodes.reserve(static_cast<std::size_t>(sys.nodes));
  for (int node = 0; node < sys.nodes; ++node) {
    const trace::NodeCategory& cat = sys.category_for_node(node);
    const double exposure =
        static_cast<double>(cat.production_end - cat.production_start);
    ClusterNodeConfig cfg;
    const auto it = counts.find(node);
    if (it != counts.end() && it->second > 0) {
      cfg.mtbf_seconds = exposure / static_cast<double>(it->second);
      const auto node_stats = hpcfail::stats::summarize(repairs.at(node));
      cfg.repair_mean_seconds = node_stats.mean * 60.0;
      cfg.repair_median_seconds = node_stats.median * 60.0;
    } else {
      cfg.mtbf_seconds = exposure;
      cfg.repair_mean_seconds = system_wide.mean * 60.0;
      cfg.repair_median_seconds = system_wide.median * 60.0;
    }
    // The simulator's lognormal repair sampler needs median < mean; a
    // single-repair node has median == mean, so nudge the median down.
    if (cfg.repair_median_seconds >= cfg.repair_mean_seconds) {
      cfg.repair_median_seconds = cfg.repair_mean_seconds * 0.999;
    }
    nodes.push_back(cfg);
  }
  return nodes;
}

}  // namespace hpcfail::sim
