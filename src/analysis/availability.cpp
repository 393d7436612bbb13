#include "analysis/availability.hpp"

#include <algorithm>
#include <span>

#include "common/error.hpp"
#include "obs/timer.hpp"
#include "trace/index.hpp"

namespace hpcfail::analysis {

std::vector<SystemAvailability> availability_analysis(
    const trace::FailureDataset& dataset,
    const trace::SystemCatalog& catalog) {
  hpcfail::obs::ScopedTimer timer("analysis.availability");
  // One row per catalog system, by catalog position.
  const std::span<const trace::SystemInfo> systems = catalog.systems();
  std::vector<SystemAvailability> rows(systems.size());
  for (std::size_t at = 0; at < systems.size(); ++at) {
    const trace::SystemInfo& sys = systems[at];
    SystemAvailability& a = rows[at];
    a.system_id = sys.id;
    a.hw_type = sys.hw_type;
    for (const trace::NodeCategory& c : sys.categories) {
      a.node_hours += static_cast<double>(c.node_count) *
                      static_cast<double>(c.production_end -
                                          c.production_start) /
                      static_cast<double>(kSecondsPerHour);
    }
  }

  // Each system's records through its index view, which keeps their
  // order, so the downtime adds up in the order it always has.
  const trace::DatasetView all = dataset.view();
  const std::vector<int> ids = dataset.system_ids();
  for (const int id : ids) {
    HPCFAIL_EXPECTS(catalog.contains(id),
                    "record references a system not in the catalog");
  }
  for (const int id : ids) {
    const std::size_t at = catalog.position(id);
    const trace::SystemInfo& sys = systems[at];
    const trace::ColumnsView records = all.for_system(id).records();
    const std::span<const int> node_ids = records.node_ids();
    const std::span<const Seconds> starts = records.starts();
    const std::span<const Seconds> ends = records.ends();
    double downtime_hours = 0.0;
    for (std::size_t i = 0; i < node_ids.size(); ++i) {
      HPCFAIL_EXPECTS(node_ids[i] < sys.nodes,
                      "record references a node outside the system");
      const trace::NodeCategory& cat = sys.category_for_node(node_ids[i]);
      // Clip the repair interval to the node's production window.
      const Seconds begin = std::max(starts[i], cat.production_start);
      const Seconds end = std::min(ends[i], cat.production_end);
      if (end > begin) {
        downtime_hours += static_cast<double>(end - begin) /
                          static_cast<double>(kSecondsPerHour);
      }
    }
    rows[at].downtime_hours = downtime_hours;
    rows[at].failures = records.size();
  }
  std::sort(rows.begin(), rows.end(),
            [](const SystemAvailability& x, const SystemAvailability& y) {
              return x.system_id < y.system_id;
            });

  SystemAvailability site;
  site.system_id = 0;
  site.hw_type = '*';
  for (SystemAvailability& a : rows) {
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
  }
  if (site.node_hours > 0.0) {
    site.availability =
        std::max(0.0, 1.0 - site.downtime_hours / site.node_hours);
  }
  site.node_mtbf_hours =
      site.failures > 0
          ? site.node_hours / static_cast<double>(site.failures)
          : 0.0;
  rows.push_back(site);
  return rows;
}

}  // namespace hpcfail::analysis
