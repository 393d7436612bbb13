#include "stats/survival.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"
#include "common/radix.hpp"

namespace hpcfail::stats {

namespace {

// Sorted copy with events ordered before censorings at tied times.
std::vector<SurvivalObservation> prepared(
    std::span<const SurvivalObservation> sample) {
  HPCFAIL_EXPECTS(!sample.empty(), "survival estimate of empty sample");
  bool any_event = false;
  bool any_negative_zero = false;
  for (const SurvivalObservation& obs : sample) {
    HPCFAIL_EXPECTS(obs.time >= 0.0, "survival times must be non-negative");
    any_event = any_event || obs.observed;
    any_negative_zero = any_negative_zero || std::signbit(obs.time);
  }
  HPCFAIL_EXPECTS(any_event, "survival estimate needs at least one event");
  std::vector<SurvivalObservation> out(sample.begin(), sample.end());
  const std::size_t n = out.size();
  if (n < kRadixSortMinSize || any_negative_zero ||
      n >= std::numeric_limits<std::uint32_t>::max()) {
    // -0.0 ties +0.0, and std::sort's arrangement of the two is its own.
    std::sort(out.begin(), out.end(),
              [](const SurvivalObservation& a, const SurvivalObservation& b) {
                if (a.time != b.time) return a.time < b.time;
                return a.observed && !b.observed;
              });
    return out;
  }
  // A non-negative time's bits order like the time. Shifted up one bit
  // they leave bit 0 for "censored", which sorts events first at a tied
  // time: the comparator's order, and the same sequence, since entries
  // equal under it are identical.
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = (std::bit_cast<std::uint64_t>(out[i].time) << 1) |
              (out[i].observed ? 0 : 1);
  }
  radix_sort(keys);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].time = std::bit_cast<double>(keys[i] >> 1);
    out[i].observed = (keys[i] & 1) == 0;
  }
  return out;
}

// Shared sweep: calls `step(time, events, at_risk)` once per distinct
// event time.
template <typename Step>
void sweep_event_times(const std::vector<SurvivalObservation>& sorted,
                       Step step) {
  std::size_t i = 0;
  std::size_t at_risk = sorted.size();
  while (i < sorted.size()) {
    const double t = sorted[i].time;
    std::size_t events = 0;
    std::size_t leaving = 0;
    while (i < sorted.size() && sorted[i].time == t) {
      if (sorted[i].observed) ++events;
      ++leaving;
      ++i;
    }
    if (events > 0) step(t, events, at_risk);
    at_risk -= leaving;
  }
}

}  // namespace

std::vector<SurvivalPoint> kaplan_meier(
    std::span<const SurvivalObservation> sample) {
  const auto sorted = prepared(sample);
  std::vector<SurvivalPoint> curve;
  double survival = 1.0;
  sweep_event_times(sorted, [&](double t, std::size_t events,
                                std::size_t at_risk) {
    survival *= 1.0 - static_cast<double>(events) /
                          static_cast<double>(at_risk);
    curve.push_back({t, survival});
  });
  return curve;
}

std::vector<SurvivalPoint> nelson_aalen(
    std::span<const SurvivalObservation> sample) {
  const auto sorted = prepared(sample);
  std::vector<SurvivalPoint> curve;
  double cumulative = 0.0;
  sweep_event_times(sorted, [&](double t, std::size_t events,
                                std::size_t at_risk) {
    cumulative +=
        static_cast<double>(events) / static_cast<double>(at_risk);
    curve.push_back({t, cumulative});
  });
  return curve;
}

std::vector<SurvivalObservation> fully_observed(
    std::span<const double> times) {
  std::vector<SurvivalObservation> out;
  out.reserve(times.size());
  for (const double t : times) out.push_back({t, true});
  return out;
}

double log_log_hazard_slope(std::span<const SurvivalObservation> sample,
                            std::size_t min_events) {
  return log_log_hazard_slope(nelson_aalen(sample), min_events);
}

double log_log_hazard_slope(std::span<const SurvivalPoint> cumulative_hazard,
                            std::size_t min_events) {
  // Use strictly positive times and hazards (log domain).
  std::vector<double> xs;
  std::vector<double> ys;
  xs.reserve(cumulative_hazard.size());
  ys.reserve(cumulative_hazard.size());
  for (const SurvivalPoint& p : cumulative_hazard) {
    if (p.time > 0.0 && p.value > 0.0) {
      xs.push_back(std::log(p.time));
      ys.push_back(std::log(p.value));
    }
  }
  HPCFAIL_EXPECTS(xs.size() >= min_events,
                  "too few events for a hazard-slope estimate");
  const auto n = static_cast<double>(xs.size());
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    mx += xs[i];
    my += ys[i];
  }
  mx /= n;
  my /= n;
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxy += (xs[i] - mx) * (ys[i] - my);
    sxx += (xs[i] - mx) * (xs[i] - mx);
  }
  HPCFAIL_EXPECTS(sxx > 0.0, "degenerate event times");
  return sxy / sxx;
}

}  // namespace hpcfail::stats
