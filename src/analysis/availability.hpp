// System availability derived from the failure trace: the fraction of
// node-time lost to repairs. This is the bottom-line metric the paper's
// statistics feed (cluster availability work [5, 25] in its intro), and
// the quantity checkpointing users plan around.
#pragma once

#include <vector>

#include "trace/catalog.hpp"
#include "trace/dataset.hpp"

namespace hpcfail::analysis {

struct SystemAvailability {
  int system_id = 0;
  char hw_type = '?';
  double node_hours = 0.0;        ///< total in-production node-hours
  double downtime_hours = 0.0;    ///< node-hours spent in repair
  std::size_t failures = 0;
  /// 1 - downtime / node_hours, in [0, 1].
  double availability = 1.0;
  /// Mean time between failures per node, hours (node_hours / failures).
  double node_mtbf_hours = 0.0;
};

/// Availability per system plus the site-wide aggregate (system_id 0,
/// hw_type '*'). Downtime that extends past a node's production end is
/// clipped to the window. Systems without failures still appear (fully
/// available). Throws InvalidArgument when a record references a system
/// the catalog does not know or, every system being known, a node outside
/// its system (run trace::validate first for dirty data).
std::vector<SystemAvailability> availability_analysis(
    const trace::FailureDataset& dataset,
    const trace::SystemCatalog& catalog);

}  // namespace hpcfail::analysis
