#include "analysis/hazard.hpp"

#include "common/error.hpp"
#include "obs/timer.hpp"
#include "trace/index.hpp"

namespace hpcfail::analysis {

HazardReport node_hazard_analysis(const trace::FailureDataset& dataset,
                                  int system_id,
                                  std::optional<Seconds> censor_at,
                                  std::size_t min_events) {
  hpcfail::obs::ScopedTimer timer("analysis.hazard");
  trace::DatasetView scoped = dataset.view().for_system(system_id);
  HPCFAIL_EXPECTS(!scoped.empty(), "system has no failures in the dataset");
  const Seconds last_start = scoped.records().starts().back();
  const Seconds horizon = censor_at.value_or(last_start);
  // Failures after the horizon are not observed yet.
  if (horizon < last_start) {
    scoped = scoped.between(scoped.first_start(), horizon + 1);
  }

  // Per node: the gaps between its failures are observed events, and the
  // interval from its last failure to the horizon is right-censored.
  HazardReport report;
  for (const trace::NodeStarts& node : scoped.node_starts()) {
    const std::span<const Seconds> starts = node.starts;
    for (std::size_t i = 1; i < starts.size(); ++i) {
      report.observations.push_back(
          {static_cast<double>(starts[i] - starts[i - 1]), true});
    }
    report.events += starts.size() - 1;
    if (horizon > starts.back()) {
      report.observations.push_back(
          {static_cast<double>(horizon - starts.back()), false});
      ++report.censored;
    }
  }
  HPCFAIL_EXPECTS(report.events >= min_events,
                  "too few interarrival events for hazard analysis");

  report.cumulative_hazard =
      hpcfail::stats::nelson_aalen(report.observations);
  report.log_log_slope = hpcfail::stats::log_log_hazard_slope(
      report.cumulative_hazard, min_events);
  return report;
}

}  // namespace hpcfail::analysis
