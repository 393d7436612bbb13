// Dataset quality validation against the site catalog.
//
// Operator-entered failure data (Section 2.3) has known failure modes of
// its own: records outside a node's production window, overlapping repair
// intervals on one node, ids that don't exist, implausible durations.
// validate() audits a dataset and returns a structured report so ingest
// pipelines can decide what to reject, repair, or merely flag.
#pragma once

#include <string>
#include <vector>

#include "trace/catalog.hpp"
#include "trace/dataset.hpp"

namespace hpcfail::trace {

enum class ValidationIssueKind {
  unknown_system,        ///< system id not in the catalog
  node_out_of_range,     ///< node id outside the system's node count
  outside_production,    ///< failure starts outside the node's window
  overlapping_repair,    ///< starts while the same node is still down
  implausible_duration,  ///< repair longer than kMaxRepairDays
  workload_mismatch,     ///< workload differs from the catalog's node role
};

std::string to_string(ValidationIssueKind kind);

/// One flagged record. The issue holds what its message needs beyond the
/// record and the catalog; issue_message() renders the text.
struct ValidationIssue {
  ValidationIssueKind kind;
  std::size_t record_index = 0;  ///< index into dataset.records()
  Seconds until = 0;  ///< overlapping_repair: the node's earlier repair end
};

/// Longest plausible repair, in days: a longer one is flagged.
inline constexpr double kMaxRepairDays = 60.0;

struct ValidationReport {
  std::vector<ValidationIssue> issues;
  std::size_t records_checked = 0;

  bool clean() const noexcept { return issues.empty(); }
  std::size_t count(ValidationIssueKind kind) const noexcept;
};

/// Audits every record against the catalog. Never throws on dirty data --
/// the report is the result (empty dataset => clean report).
ValidationReport validate(const FailureDataset& dataset,
                          const SystemCatalog& catalog);

/// The message of an issue that validate(dataset, catalog) reported, e.g.
/// "system 99 is not in the catalog".
std::string issue_message(const ValidationIssue& issue,
                          const FailureDataset& dataset,
                          const SystemCatalog& catalog);

/// Copy of the dataset without the records named in `report` (the
/// standard "drop what validation flagged" ingest step).
FailureDataset drop_flagged(const FailureDataset& dataset,
                            const ValidationReport& report);

}  // namespace hpcfail::trace
