// Calibration: turn an observed failure trace into simulator inputs.
//
// Closes the loop between the analysis side of the library and the
// event-driven simulator. The paper's Section 5.1 argument — schedulers
// should exploit the heterogeneous per-node failure rates of Fig 3(a) —
// is only testable in simulation if the simulated cluster actually has
// the trace's per-node rates. `calibrate_nodes` derives one
// ClusterNodeConfig per node of a system: MTBF from the node category's
// production exposure divided by the node's observed failure count
// (read zero-copy off the dataset index), and repair mean/median from
// the node's own repair times, falling back to the system-wide
// statistics for nodes that never failed.
#pragma once

#include <vector>

#include "sim/scenario.hpp"
#include "trace/catalog.hpp"
#include "trace/dataset.hpp"

namespace hpcfail::sim {

/// One ClusterNodeConfig per node id in [0, system.nodes), calibrated
/// from the system's records in `dataset`. Nodes with no observed
/// failures get an MTBF equal to their full production exposure (a
/// lower bound: at most one failure "just missed") and the system-wide
/// repair statistics. Throws InvalidArgument if the system has no
/// failures in the dataset.
std::vector<ClusterNodeConfig> calibrate_nodes(
    const trace::FailureDataset& dataset,
    const trace::SystemCatalog& catalog, int system_id);

}  // namespace hpcfail::sim
