#include "analysis/rates.hpp"

#include "common/error.hpp"
#include "obs/timer.hpp"
#include "trace/index.hpp"

namespace hpcfail::analysis {

std::vector<SystemRate> failure_rates(const trace::FailureDataset& dataset,
                                      const trace::SystemCatalog& catalog) {
  hpcfail::obs::ScopedTimer timer("analysis.rates");
  HPCFAIL_EXPECTS(!dataset.empty(), "failure rates of empty dataset");
  const trace::DatasetView view = dataset.view();
  std::vector<SystemRate> rates;
  for (const int id : dataset.system_ids()) {
    const trace::SystemInfo& sys = catalog.system(id);
    SystemRate r;
    r.system_id = id;
    r.hw_type = sys.hw_type;
    r.failures = view.for_system(id).size();
    r.production_years = sys.production_years();
    HPCFAIL_ASSERT(r.production_years > 0.0);
    r.failures_per_year =
        static_cast<double>(r.failures) / r.production_years;
    r.failures_per_year_per_proc =
        r.failures_per_year / static_cast<double>(sys.procs);
    rates.push_back(r);
  }
  return rates;
}

NodeDistributionReport node_distribution(
    const trace::FailureDataset& dataset,
    const trace::SystemCatalog& catalog, int system_id) {
  hpcfail::obs::ScopedTimer timer("analysis.node_distribution");
  const trace::SystemInfo& sys = catalog.system(system_id);
  const auto counts = dataset.view().for_system(system_id).failures_per_node();
  HPCFAIL_EXPECTS(!counts.empty(),
                  "system has no failures in the dataset");

  NodeDistributionReport report;
  report.system_id = system_id;

  std::size_t total = 0;
  std::size_t graphics_failures = 0;
  int graphics_nodes = 0;
  for (int node = 0; node < sys.nodes; ++node) {
    NodeCount nc;
    nc.node_id = node;
    nc.workload = sys.workload_of(node);
    const auto it = counts.find(node);
    nc.failures = it != counts.end() ? it->second : 0;
    total += nc.failures;
    if (nc.workload == trace::Workload::graphics) {
      ++graphics_nodes;
      graphics_failures += nc.failures;
    } else if (nc.workload == trace::Workload::compute) {
      report.compute_node_counts.push_back(
          static_cast<double>(nc.failures));
    }
    report.per_node.push_back(nc);
  }
  report.graphics_node_fraction =
      static_cast<double>(graphics_nodes) / static_cast<double>(sys.nodes);
  report.graphics_failure_fraction =
      total > 0 ? static_cast<double>(graphics_failures) /
                      static_cast<double>(total)
                : 0.0;

  if (report.compute_node_counts.size() >= 2) {
    report.count_fits = hpcfail::dist::fit_report(
        report.compute_node_counts, hpcfail::dist::count_families());
  }
  return report;
}

}  // namespace hpcfail::analysis
