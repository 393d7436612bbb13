// Fault-injection scenarios: what a campaign throws at the cluster.
//
// A scenario fixes the environment half of a campaign cell — the cluster
// size, the workload, and above all the fault model that produces each
// run's faults. Three model kinds cover the study's regimes:
//
//   * scripted — a fixed fault list, identical for every replicate. The
//     scenario library uses this for the staggered cascading mass-failure
//     pattern (21% of nodes failing over hours, SNIPPETS Snippet 2) and
//     for correlated simultaneous failures (the exact-zero interarrivals
//     of paper Fig 6c).
//   * renewal — each node draws its failure times from an interarrival
//     distribution (and repair durations from a repair distribution),
//     re-sampled per replicate from that replicate's deterministic RNG
//     stream. One (interarrival, repair) pair serves every node, or each
//     node has its own (Fig 3a's heterogeneous per-node rates). Plug in
//     the best family of a fitted dist::FitReport to inject faults
//     "shaped like" an analyzed trace.
//   * replay is a scripted model harvested from a real trace: one
//     injected fault per observed failure record of one system, read
//     zero-copy through trace::DatasetIndex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dist/distribution.hpp"
#include "dist/fit.hpp"
#include "trace/dataset.hpp"

namespace hpcfail::sim {

/// One injected fault: node `node` fails `time` seconds into the run and
/// needs `repair_seconds` of repair service once a crew picks it up.
struct InjectedFault {
  double time = 0.0;
  int node = 0;
  double repair_seconds = 0.0;

  friend bool operator==(const InjectedFault&,
                         const InjectedFault&) = default;
};

enum class FaultModelKind {
  scripted,  ///< fixed fault list, shared by every replicate
  renewal,   ///< per-node renewal process, re-sampled per replicate
};

/// One renewal process: `interarrival` (required) and `repair`
/// (optional; null = instant repair).
struct RenewalPair {
  std::shared_ptr<const dist::Distribution> interarrival;
  std::shared_ptr<const dist::Distribution> repair;
};

/// The fault source of a scenario. For `scripted`, `scripted` holds the
/// time-ascending schedule; for `renewal`, `renewal` holds one pair shared
/// by every node or one pair per node.
struct FaultModel {
  FaultModelKind kind = FaultModelKind::scripted;
  std::vector<InjectedFault> scripted;
  std::vector<RenewalPair> renewal;
};

/// Per-node reliability parameters, e.g. from sim::calibrate_nodes.
struct ClusterNodeConfig {
  double mtbf_seconds = 0.0;  ///< mean time between failures
  double repair_mean_seconds = 0.0;
  double repair_median_seconds = 0.0;  ///< < mean (lognormal right skew)
};

/// Wraps a fixed schedule. The faults must be time-ascending (validated
/// by Campaign construction).
FaultModel scripted_fault_model(std::vector<InjectedFault> faults);

/// Renewal model from explicit distributions. `interarrival` must not be
/// null; `repair` may be (instant repair).
FaultModel renewal_fault_model(
    std::shared_ptr<const dist::Distribution> interarrival,
    std::shared_ptr<const dist::Distribution> repair);

/// Renewal model from fitted reports: clones the best-ranked family of
/// each. Throws InvalidArgument if `interarrival_fit` is empty; an empty
/// `repair_fit` yields instant repair.
FaultModel renewal_fault_model(const dist::FitReport& interarrival_fit,
                               const dist::FitReport& repair_fit);

/// Per-node renewal model: node i fails with Weibull(0.7) interarrivals
/// (the paper's shape) scaled to nodes[i]'s MTBF and is repaired in
/// LogNormal(mean, median) time. Throws InvalidArgument on an empty list,
/// a non-positive MTBF, or a repair without mean > median > 0.
FaultModel renewal_fault_model(std::span<const ClusterNodeConfig> nodes);

/// Builds a heterogeneous node set mimicking Fig 3(a): `node_count` nodes
/// with lognormally-jittered MTBFs around `base_mtbf`, plus a fraction of
/// "hot" nodes (graphics-like) with `hot_factor` times the failure rate.
/// Repairs follow Table 2 (mean 6 h, median 1 h).
std::vector<ClusterNodeConfig> heterogeneous_nodes(
    std::size_t node_count, double base_mtbf_seconds, double jitter_sigma,
    double hot_fraction, double hot_factor, std::uint64_t seed);

/// One campaign scenario: topology, workload, and fault model. Names key
/// the campaign report cells, so they must be unique within a spec.
struct CampaignScenario {
  std::string name;
  std::size_t node_count = 0;
  /// Renewal injection horizon: no faults are scheduled past this run
  /// time; +infinity means no cut-off, so runs go to completion. Ignored
  /// for scripted models (the script bounds itself).
  double horizon_seconds = 0.0;
  /// Simultaneous repairs in service; 0 = unlimited crews. Failed nodes
  /// beyond the limit queue FIFO (repair-queue contention).
  std::size_t repair_concurrency = 0;
  FaultModel faults;
  // The workload every policy is measured against.
  int job_width = 1;
  double job_work_seconds = 0.0;
  std::size_t job_count = 0;
  /// Cap on simultaneously running jobs; 0 = unlimited. Placement only
  /// matters below saturation: with spare nodes, a reliability-aware
  /// scheduler can leave the failure-prone ones idle.
  std::size_t max_concurrent_jobs = 0;
  double checkpoint_cost = 0.0;  ///< seconds per checkpoint write
  double restart_cost = 0.0;     ///< seconds to reload after a kill
};

/// Snippet 2's stress shape: `fail_fraction` of the nodes fail at
/// `stagger_seconds` intervals starting at `first_fault_at`, each down
/// for `repair_seconds`. Distinct nodes, evenly spread over the cluster.
CampaignScenario staggered_cascade_scenario(
    std::size_t node_count = 72, double fail_fraction = 0.21,
    double first_fault_at = 3000.0, double stagger_seconds = 500.0,
    double repair_seconds = 4.0 * 3600.0);

/// Paper Fig 6c's correlated simultaneous failures: `bursts` bursts,
/// `burst_width` nodes failing at the exact same instant per burst.
CampaignScenario correlated_burst_scenario(
    std::size_t node_count = 64, std::size_t bursts = 6,
    std::size_t burst_width = 8, double burst_spacing = 2.0 * 3600.0,
    double repair_seconds = 2.0 * 3600.0);

/// Repair-queue contention: a dense renewal fault stream against a small
/// fixed crew count, so failed nodes queue for service.
CampaignScenario repair_contention_scenario(std::size_t node_count = 48,
                                            std::size_t crews = 2);

/// Renewal scenario with the paper's shapes: Weibull(0.7) interarrivals
/// and lognormal repairs (Table 2's mean 6 h, median 1 h).
CampaignScenario weibull_renewal_scenario(std::size_t node_count = 64,
                                          double mtbf_seconds = 10.0 *
                                                                86400.0,
                                          double horizon_seconds = 60.0 *
                                                                   86400.0);

/// Replay of one trace system's observed failures through the dataset
/// index: one injected fault per record, times offset to the system's
/// first failure, repair = the record's downtime. Trace node ids are
/// mapped onto [0, node_count) by modulo; node_count = 0 sizes the
/// cluster to the largest observed node id + 1. Throws ValidationError
/// if the system has no records.
CampaignScenario replay_scenario(const trace::FailureDataset& dataset,
                                 int system_id,
                                 std::size_t node_count = 0);

/// The library the campaign CLI exposes: cascade, bursts, contention,
/// and the Weibull renewal scenario.
std::vector<CampaignScenario> default_scenarios();

}  // namespace hpcfail::sim
