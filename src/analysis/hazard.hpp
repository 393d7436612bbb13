// Model-free hazard-rate analysis of time between failures.
//
// The paper's hazard statements go through the fitted Weibull shape
// (0.7-0.8 => decreasing hazard: "not seeing a failure for a long time
// decreases the chance of seeing one in the near future"). This analyzer
// checks the same claim nonparametrically via the Nelson-Aalen cumulative
// hazard, treating each node's final failure-free interval as right-
// censored at the end of observation.
#pragma once

#include <optional>
#include <vector>

#include "common/time.hpp"
#include "stats/survival.hpp"
#include "trace/dataset.hpp"

namespace hpcfail::analysis {

struct HazardReport {
  /// Interarrival observations, censored where appropriate: node by node
  /// in ascending node id, each node's gaps in time order followed by its
  /// censored interval.
  std::vector<hpcfail::stats::SurvivalObservation> observations;
  std::size_t events = 0;
  std::size_t censored = 0;
  /// Nelson-Aalen cumulative hazard steps.
  std::vector<hpcfail::stats::SurvivalPoint> cumulative_hazard;
  /// Slope of log H(t) vs log t; < 1 means decreasing hazard (equals the
  /// shape parameter when the data is Weibull).
  double log_log_slope = 0.0;
  bool decreasing_hazard() const noexcept { return log_log_slope < 1.0; }
};

/// Per-node hazard analysis for one system: every node contributes its
/// observed interarrival times plus one censored interval from its last
/// failure to `censor_at` (defaults to the last failure time in the
/// dataset for that system). Only failures starting at or before
/// `censor_at` are observed; a node's interval that crosses it is
/// censored there. Throws InvalidArgument when fewer than `min_events`
/// interarrivals exist.
HazardReport node_hazard_analysis(const trace::FailureDataset& dataset,
                                  int system_id,
                                  std::optional<Seconds> censor_at = {},
                                  std::size_t min_events = 16);

}  // namespace hpcfail::analysis
