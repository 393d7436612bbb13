#include "analysis/availability.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"
#include "obs/timer.hpp"

namespace hpcfail::analysis {

std::vector<SystemAvailability> availability_analysis(
    const trace::FailureDataset& dataset,
    const trace::SystemCatalog& catalog) {
  hpcfail::obs::ScopedTimer timer("analysis.availability");
  std::map<int, SystemAvailability> by_system;
  for (const trace::SystemInfo& sys : catalog.systems()) {
    SystemAvailability a;
    a.system_id = sys.id;
    a.hw_type = sys.hw_type;
    for (const trace::NodeCategory& c : sys.categories) {
      a.node_hours += static_cast<double>(c.node_count) *
                      static_cast<double>(c.production_end -
                                          c.production_start) /
                      static_cast<double>(kSecondsPerHour);
    }
    by_system[sys.id] = a;
  }

  for (const trace::FailureRecord& r : dataset.records()) {
    const auto it = by_system.find(r.system_id);
    HPCFAIL_EXPECTS(it != by_system.end(),
                    "record references a system not in the catalog");
    const trace::SystemInfo& sys = catalog.system(r.system_id);
    HPCFAIL_EXPECTS(r.node_id < sys.nodes,
                    "record references a node outside the system");
    const trace::NodeCategory& cat = sys.category_for_node(r.node_id);
    // Clip the repair interval to the node's production window.
    const Seconds begin = std::max(r.start, cat.production_start);
    const Seconds end = std::min(r.end, cat.production_end);
    if (end > begin) {
      it->second.downtime_hours +=
          static_cast<double>(end - begin) /
          static_cast<double>(kSecondsPerHour);
    }
    ++it->second.failures;
  }

  std::vector<SystemAvailability> result;
  SystemAvailability site;
  site.system_id = 0;
  site.hw_type = '*';
  for (auto& [id, a] : by_system) {
    if (a.node_hours > 0.0) {
      a.availability =
          std::max(0.0, 1.0 - a.downtime_hours / a.node_hours);
    }
    a.node_mtbf_hours = a.failures > 0
                            ? a.node_hours /
                                  static_cast<double>(a.failures)
                            : 0.0;
    site.node_hours += a.node_hours;
    site.downtime_hours += a.downtime_hours;
    site.failures += a.failures;
    result.push_back(a);
  }
  if (site.node_hours > 0.0) {
    site.availability =
        std::max(0.0, 1.0 - site.downtime_hours / site.node_hours);
  }
  site.node_mtbf_hours =
      site.failures > 0
          ? site.node_hours / static_cast<double>(site.failures)
          : 0.0;
  result.push_back(site);
  return result;
}

}  // namespace hpcfail::analysis
