#include "analysis/outliers.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "dist/poisson.hpp"
#include "obs/timer.hpp"
#include "trace/index.hpp"

namespace hpcfail::analysis {

OutlierReport node_outlier_analysis(const trace::FailureDataset& dataset,
                                    const trace::SystemCatalog& catalog,
                                    int system_id, double alpha) {
  hpcfail::obs::ScopedTimer timer("analysis.outliers");
  HPCFAIL_EXPECTS(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
  const trace::SystemInfo& sys = catalog.system(system_id);
  const auto counts = dataset.view().for_system(system_id).failures_per_node();
  HPCFAIL_EXPECTS(!counts.empty(), "system has no failures in the dataset");

  std::size_t total = 0;
  for (const auto& [node, count] : counts) total += count;

  // Exposure-weighted null: node i's expected share is its production
  // time divided by the sum over all nodes.
  std::vector<double> exposure(static_cast<std::size_t>(sys.nodes), 0.0);
  double exposure_total = 0.0;
  for (int node = 0; node < sys.nodes; ++node) {
    const trace::NodeCategory& c = sys.category_for_node(node);
    const double t =
        static_cast<double>(c.production_end - c.production_start);
    exposure[static_cast<std::size_t>(node)] = t;
    exposure_total += t;
  }
  HPCFAIL_ASSERT(exposure_total > 0.0);

  OutlierReport report;
  report.system_id = system_id;
  report.alpha = alpha;
  const double threshold = alpha / static_cast<double>(sys.nodes);
  for (int node = 0; node < sys.nodes; ++node) {
    NodeOutlier entry;
    entry.node_id = node;
    entry.workload = sys.workload_of(node);
    const auto it = counts.find(node);
    entry.failures = it != counts.end() ? it->second : 0;
    entry.expected = static_cast<double>(total) *
                     exposure[static_cast<std::size_t>(node)] /
                     exposure_total;
    if (entry.expected > 0.0 && entry.failures > 0) {
      const hpcfail::dist::Poisson null_model(entry.expected);
      // One-sided: P(X >= observed) = 1 - P(X <= observed - 1).
      entry.p_value =
          1.0 - null_model.cdf(static_cast<double>(entry.failures) - 1.0);
    }
    entry.significant = entry.p_value < threshold;
    if (entry.significant) ++report.significant_count;
    report.nodes.push_back(entry);
  }
  std::sort(report.nodes.begin(), report.nodes.end(),
            [](const NodeOutlier& a, const NodeOutlier& b) {
              if (a.p_value != b.p_value) return a.p_value < b.p_value;
              return a.node_id < b.node_id;
            });
  return report;
}

}  // namespace hpcfail::analysis
