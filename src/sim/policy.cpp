#include "sim/policy.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace hpcfail::sim {

namespace {

void check_bounds(const HazardAwareBounds& bounds) {
  HPCFAIL_EXPECTS(bounds.min_interval > 0.0 &&
                      bounds.max_interval >= bounds.min_interval,
                  "need 0 < min_interval <= max_interval");
}

}  // namespace

double young_interval(double mtbf_seconds, double checkpoint_cost) {
  HPCFAIL_EXPECTS(mtbf_seconds > 0.0, "MTBF must be positive");
  HPCFAIL_EXPECTS(checkpoint_cost > 0.0, "checkpoint cost must be positive");
  return std::sqrt(2.0 * checkpoint_cost * mtbf_seconds);
}

double daly_interval(double mtbf_seconds, double checkpoint_cost) {
  HPCFAIL_EXPECTS(mtbf_seconds > 0.0, "MTBF must be positive");
  HPCFAIL_EXPECTS(checkpoint_cost > 0.0, "checkpoint cost must be positive");
  if (checkpoint_cost >= 2.0 * mtbf_seconds) return mtbf_seconds;
  const double ratio = checkpoint_cost / (2.0 * mtbf_seconds);
  return std::sqrt(2.0 * checkpoint_cost * mtbf_seconds) *
             (1.0 + std::sqrt(ratio) / 3.0 + ratio / 9.0) -
         checkpoint_cost;
}

double hazard_aware_interval(const dist::Distribution& process,
                             double checkpoint_cost, double since_start,
                             const HazardAwareBounds& bounds) {
  HPCFAIL_EXPECTS(checkpoint_cost > 0.0, "checkpoint cost must be positive");
  check_bounds(bounds);
  // Evaluate slightly after zero so Weibull shapes < 1 (infinite hazard
  // at 0) stay finite.
  const double h = process.hazard(std::max(since_start, 1.0));
  if (!(h > 0.0) || !std::isfinite(h)) return bounds.max_interval;
  return std::clamp(std::sqrt(2.0 * checkpoint_cost / h),
                    bounds.min_interval, bounds.max_interval);
}

CampaignPolicy no_protection_policy() {
  return {"none", PlacementPolicy::random, 0.0, {}};
}

CampaignPolicy periodic_checkpoint_policy(double interval_seconds) {
  HPCFAIL_EXPECTS(interval_seconds > 0.0,
                  "checkpoint interval must be positive");
  return {"periodic", PlacementPolicy::random, interval_seconds, {}};
}

CampaignPolicy daly_checkpoint_policy(double mtbf_seconds,
                                      double checkpoint_cost) {
  return {"daly", PlacementPolicy::random,
          daly_interval(mtbf_seconds, checkpoint_cost), {}};
}

CampaignPolicy hazard_aware_checkpoint_policy(double min_interval,
                                              double max_interval) {
  const HazardAwareBounds bounds{min_interval, max_interval};
  check_bounds(bounds);
  return {"hazard-aware", PlacementPolicy::random, 0.0, bounds};
}

CampaignPolicy reliability_ranked_policy(double checkpoint_interval) {
  HPCFAIL_EXPECTS(checkpoint_interval >= 0.0,
                  "checkpoint interval must be non-negative");
  return {"ranked", PlacementPolicy::reliability_ranked, checkpoint_interval,
          {}};
}

std::vector<CampaignPolicy> default_policy_set() {
  CampaignPolicy hourly = periodic_checkpoint_policy(3600.0);
  hourly.name = "hourly";
  CampaignPolicy ranked = reliability_ranked_policy(3600.0);
  ranked.name = "hourly-ranked";
  return {no_protection_policy(), hourly, ranked};
}

}  // namespace hpcfail::sim
