// Resilience policies under test in fault-injection campaigns.
//
// A policy is the operator-controllable half of a campaign cell: where
// gang-scheduled jobs are placed (the paper's Section 5.1 argument that
// schedulers should exploit heterogeneous per-node failure rates) and how
// often they checkpoint (the Young/Daly interval question the paper's
// statistics exist to answer). Scenarios supply the faults. Scripted and
// replay scenarios throw the same faults at every policy; a renewal
// scenario's stream is keyed by cell, so two policies of one campaign see
// different draws. For common random numbers across policies, run one
// single-policy campaign per policy with the same seed.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "dist/distribution.hpp"

namespace hpcfail::sim {

enum class PlacementPolicy {
  random,              ///< uniform over available nodes
  reliability_ranked,  ///< prefer the nodes with the fewest expected faults
};

/// Bounds of the hazard-aware checkpoint rule (hazard_aware_interval).
struct HazardAwareBounds {
  double min_interval = 60.0;
  double max_interval = 86400.0;

  friend bool operator==(const HazardAwareBounds&,
                         const HazardAwareBounds&) = default;
};

/// One policy under test. Names key the campaign report cells, so they
/// must be unique within a CampaignSpec.
struct CampaignPolicy {
  std::string name;
  PlacementPolicy placement = PlacementPolicy::random;
  /// Useful-work seconds between application checkpoints; 0 = none (a
  /// killed job restarts from scratch, the LANL default).
  double checkpoint_interval = 0.0;
  /// When set, each segment's length follows the hazard-aware rule
  /// instead of a fixed interval (which must then be 0). Needs a scenario
  /// whose nodes share one renewal interarrival distribution.
  std::optional<HazardAwareBounds> hazard_aware;

  friend bool operator==(const CampaignPolicy&,
                         const CampaignPolicy&) = default;
};

/// Young's first-order optimal checkpoint interval sqrt(2 * C * MTBF).
/// Throws InvalidArgument unless both arguments are positive.
double young_interval(double mtbf_seconds, double checkpoint_cost);

/// Daly's higher-order refinement of Young's interval (valid for
/// C < 2 * MTBF; falls back to MTBF otherwise, per Daly 2006).
double daly_interval(double mtbf_seconds, double checkpoint_cost);

/// The hazard-aware interval: Young's formula evaluated at the *current*
/// hazard rate, tau(s) = clamp(sqrt(2 C / h(s)), min, max), where s is the
/// time since the attempt began. For a Weibull with shape < 1 this starts
/// short and grows, the strategy a decreasing hazard suggests. Throws
/// InvalidArgument unless C > 0 and 0 < min <= max.
double hazard_aware_interval(const dist::Distribution& process,
                             double checkpoint_cost, double since_start,
                             const HazardAwareBounds& bounds);

/// No checkpointing, uniform-random placement — the unprotected baseline.
CampaignPolicy no_protection_policy();

/// Periodic checkpointing at a fixed interval, random placement. Throws
/// InvalidArgument unless the interval is positive.
CampaignPolicy periodic_checkpoint_policy(double interval_seconds);

/// Periodic checkpointing at Daly's near-optimal interval for the given
/// MTBF and checkpoint cost, random placement.
CampaignPolicy daly_checkpoint_policy(double mtbf_seconds,
                                      double checkpoint_cost);

/// Hazard-aware checkpointing (hazard_aware_interval, with the scenario's
/// checkpoint cost and interarrival hazard), random placement. Throws
/// InvalidArgument unless 0 < min <= max.
CampaignPolicy hazard_aware_checkpoint_policy(double min_interval = 60.0,
                                              double max_interval = 86400.0);

/// Reliability-ranked placement (prefer the nodes with the fewest
/// expected faults — an operator who knows the per-node rates of
/// Fig 3a) with optional periodic checkpointing (0 = none).
CampaignPolicy reliability_ranked_policy(double checkpoint_interval = 0.0);

/// The three-way comparison the campaign CLI runs by default: no
/// protection, hourly checkpoints, hourly checkpoints + ranked placement.
std::vector<CampaignPolicy> default_policy_set();

}  // namespace hpcfail::sim
