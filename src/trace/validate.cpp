#include "trace/validate.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace hpcfail::trace {

std::string to_string(ValidationIssueKind kind) {
  switch (kind) {
    case ValidationIssueKind::unknown_system: return "unknown_system";
    case ValidationIssueKind::node_out_of_range: return "node_out_of_range";
    case ValidationIssueKind::outside_production:
      return "outside_production";
    case ValidationIssueKind::overlapping_repair:
      return "overlapping_repair";
    case ValidationIssueKind::implausible_duration:
      return "implausible_duration";
    case ValidationIssueKind::workload_mismatch:
      return "workload_mismatch";
  }
  throw InvalidArgument("invalid ValidationIssueKind");
}

std::size_t ValidationReport::count(ValidationIssueKind kind) const noexcept {
  std::size_t total = 0;
  for (const ValidationIssue& issue : issues) {
    if (issue.kind == kind) ++total;
  }
  return total;
}

ValidationReport validate(const FailureDataset& dataset,
                          const SystemCatalog& catalog) {
  ValidationReport report;
  report.records_checked = dataset.size();
  const auto max_repair_seconds =
      static_cast<Seconds>(kMaxRepairDays * kSecondsPerDay);

  const std::span<const SystemInfo> systems = catalog.systems();

  // Latest repair end seen so far per node, one array per catalog system
  // sized by its node count; records are sorted by start, so an overlap
  // is simply start < previous end. kNever marks a node not seen yet.
  constexpr Seconds kNever = std::numeric_limits<Seconds>::min();
  std::vector<std::vector<Seconds>> down_until(systems.size());
  for (std::size_t k = 0; k < systems.size(); ++k) {
    down_until[k].assign(static_cast<std::size_t>(systems[k].nodes), kNever);
  }

  const auto records = dataset.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const FailureRecord& r = records[i];
    const auto flag = [&](ValidationIssueKind kind, Seconds until = 0) {
      report.issues.push_back({kind, i, until});
    };

    const std::size_t at = catalog.position(r.system_id);
    if (at == SystemCatalog::npos) {
      flag(ValidationIssueKind::unknown_system);
      continue;  // nothing else is checkable
    }
    const SystemInfo& sys = systems[at];
    if (r.node_id >= sys.nodes) {
      flag(ValidationIssueKind::node_out_of_range);
      continue;
    }
    const NodeCategory& category = sys.category_for_node(r.node_id);
    if (r.start < category.production_start ||
        r.start >= category.production_end) {
      flag(ValidationIssueKind::outside_production);
    }
    if (r.downtime_seconds() > max_repair_seconds) {
      flag(ValidationIssueKind::implausible_duration);
    }
    if (r.workload != sys.workload_of(r.node_id)) {
      flag(ValidationIssueKind::workload_mismatch);
    }
    // Dataset node ids are non-negative and the range check above bounds
    // them by the system's node count.
    Seconds& until = down_until[at][static_cast<std::size_t>(r.node_id)];
    if (r.start < until) {
      flag(ValidationIssueKind::overlapping_repair, until);
    }
    until = std::max(until, r.end);
  }
  return report;
}

std::string issue_message(const ValidationIssue& issue,
                          const FailureDataset& dataset,
                          const SystemCatalog& catalog) {
  HPCFAIL_EXPECTS(issue.record_index < dataset.size(),
                  "issue_message: the issue names no record of the dataset");
  const FailureRecord r = dataset.records()[issue.record_index];
  switch (issue.kind) {
    case ValidationIssueKind::unknown_system:
      return "system " + std::to_string(r.system_id) +
             " is not in the catalog";
    case ValidationIssueKind::node_out_of_range:
      return "node " + std::to_string(r.node_id) + " of system " +
             std::to_string(r.system_id) + " (has " +
             std::to_string(catalog.system(r.system_id).nodes) + " nodes)";
    case ValidationIssueKind::outside_production:
      return "failure at " + format_timestamp(r.start) +
             " outside the node's production window";
    case ValidationIssueKind::implausible_duration:
      return "repair of " +
             std::to_string(r.downtime_seconds() / kSecondsPerDay) +
             " days exceeds the plausibility cap";
    case ValidationIssueKind::workload_mismatch:
      return "record says " + to_string(r.workload) + ", catalog says " +
             to_string(catalog.system(r.system_id).workload_of(r.node_id));
    case ValidationIssueKind::overlapping_repair:
      return "failure starts while the node is still under repair until " +
             format_timestamp(issue.until);
  }
  throw InvalidArgument("invalid ValidationIssueKind");
}

FailureDataset drop_flagged(const FailureDataset& dataset,
                            const ValidationReport& report) {
  std::set<std::size_t> drop;
  for (const ValidationIssue& issue : report.issues) {
    drop.insert(issue.record_index);
  }
  std::vector<FailureRecord> kept;
  const auto records = dataset.records();
  kept.reserve(records.size() - drop.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (drop.find(i) == drop.end()) kept.push_back(records[i]);
  }
  return FailureDataset(std::move(kept));
}

}  // namespace hpcfail::trace
