// Nonparametric survival analysis: Kaplan-Meier survival estimation and
// the Nelson-Aalen cumulative hazard, both with right-censoring support.
//
// The paper argues about hazard rates through the fitted Weibull shape
// (0.7-0.8 => decreasing). These estimators let the library make the same
// statement *without* picking a family: a concave Nelson-Aalen cumulative
// hazard is model-free evidence of a decreasing hazard rate. Censoring
// matters because every node's final failure-free interval is cut off by
// the end of observation, and ignoring it biases hazard estimates upward.
#pragma once

#include <span>
#include <vector>

namespace hpcfail::stats {

/// One observed duration; `observed` is false for right-censored entries
/// (the event had not happened yet when observation stopped).
struct SurvivalObservation {
  double time = 0.0;
  bool observed = true;
};

/// A step of an estimated curve: value on [time, next step's time).
struct SurvivalPoint {
  double time = 0.0;
  double value = 0.0;
};

/// Kaplan-Meier product-limit estimate of the survival function S(t).
/// Input may be unordered; ties between events and censorings at the same
/// time follow the usual convention (events first). Throws
/// InvalidArgument when the sample is empty, has negative times, or
/// contains no observed events.
std::vector<SurvivalPoint> kaplan_meier(
    std::span<const SurvivalObservation> sample);

/// Nelson-Aalen estimate of the cumulative hazard H(t).
/// Same input contract as kaplan_meier().
std::vector<SurvivalPoint> nelson_aalen(
    std::span<const SurvivalObservation> sample);

/// Convenience: wraps fully-observed durations.
std::vector<SurvivalObservation> fully_observed(
    std::span<const double> times);

/// Model-free test for a decreasing hazard rate: fits the best
/// least-squares slope to log H(t) vs log t over the Nelson-Aalen steps;
/// a slope < 1 means H is concave in t, i.e. the hazard decreases (for a
/// Weibull this slope *is* the shape parameter). Returns the slope.
/// Throws InvalidArgument when fewer than `min_events` events exist.
/// Equals log_log_hazard_slope(nelson_aalen(sample), min_events).
double log_log_hazard_slope(std::span<const SurvivalObservation> sample,
                            std::size_t min_events = 8);

/// The same slope over an already-built Nelson-Aalen curve, for callers
/// that keep the curve: the fit reads the steps with positive time and
/// hazard, and throws InvalidArgument when fewer than `min_events` of
/// them exist or their times do not vary.
double log_log_hazard_slope(std::span<const SurvivalPoint> cumulative_hazard,
                            std::size_t min_events = 8);

}  // namespace hpcfail::stats
