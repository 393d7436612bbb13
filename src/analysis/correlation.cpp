#include "analysis/correlation.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "common/error.hpp"
#include "obs/timer.hpp"
#include "stats/descriptive.hpp"
#include "trace/index.hpp"

namespace hpcfail::analysis {

namespace {

// Lags summed in one sweep of the sequence, each in its own register:
// correlation_analysis's default max_lag. On one thread, over every
// system's gaps in a x39 LANL trace, one sweep over ten lags took 3.5-5.0
// ms where ten single-lag passes took 12-18 ms.
constexpr std::size_t kLagBlock = 10;

/// The sums of d[i] * d[i + lag] over i, for lag = first .. first +
/// kLagBlock - 1, in one sweep. Each lag adds its terms in index order.
std::array<double, kLagBlock> lag_sums(std::span<const double> d,
                                       std::size_t first) {
  std::array<double, kLagBlock> sums{};
  const std::size_t n = d.size();
  std::size_t i = 0;
  // Rows with every lag of the block inside the sequence, then the rest.
  for (; i + first + kLagBlock <= n; ++i) {
#pragma GCC unroll 10
    for (std::size_t k = 0; k < kLagBlock; ++k) {
      sums[k] += d[i] * d[i + first + k];
    }
  }
  for (; i + first < n; ++i) {
    for (std::size_t k = 0; k < kLagBlock && i + first + k < n; ++k) {
      sums[k] += d[i] * d[i + first + k];
    }
  }
  return sums;
}

}  // namespace

std::vector<double> autocorrelation(std::span<const double> sequence,
                                    std::size_t max_lag) {
  HPCFAIL_EXPECTS(max_lag >= 1, "max_lag must be at least 1");
  HPCFAIL_EXPECTS(sequence.size() >= max_lag + 2,
                  "sequence too short for the requested lag");
  const double m = hpcfail::stats::mean(sequence);
  std::vector<double> deviations(sequence.size());
  double denom = 0.0;
  for (std::size_t i = 0; i < sequence.size(); ++i) {
    deviations[i] = sequence[i] - m;
    denom += deviations[i] * deviations[i];
  }
  HPCFAIL_EXPECTS(denom > 0.0,
                  "autocorrelation undefined for a constant sequence");

  std::vector<double> acf(max_lag);
  for (std::size_t first = 1; first <= max_lag; first += kLagBlock) {
    const std::array<double, kLagBlock> sums = lag_sums(deviations, first);
    for (std::size_t k = 0; k < kLagBlock && first + k <= max_lag; ++k) {
      acf[first + k - 1] = sums[k] / denom;
    }
  }
  return acf;
}

CorrelationReport correlation_analysis(const trace::FailureDataset& dataset,
                                       int system_id, std::size_t max_lag) {
  hpcfail::obs::ScopedTimer timer("analysis.correlation");
  const trace::DatasetView scoped = dataset.view().for_system(system_id);
  HPCFAIL_EXPECTS(scoped.size() >= 32,
                  "too few failures for correlation analysis");
  const std::span<const Seconds> starts = scoped.records().starts();
  const std::int64_t first_day = starts.front() / kSecondsPerDay;
  const std::int64_t last_day = starts.back() / kSecondsPerDay;
  const auto span_days = static_cast<std::uint64_t>(last_day - first_day) + 1;
  if (span_days > kMaxCorrelationSpanDays) {
    throw ValidationError("system " + std::to_string(system_id) +
                          "'s failures span " + std::to_string(span_days) +
                          " days, more than the " +
                          std::to_string(kMaxCorrelationSpanDays) +
                          " the daily counts take");
  }

  CorrelationReport report;

  // Simultaneous bursts: group records by exact start second.
  report.bursts.total_failures = scoped.size();
  std::size_t run = 1;
  const auto close_run = [&report](std::size_t length) {
    if (length >= 2) {
      ++report.bursts.burst_events;
      report.bursts.burst_failures += length;
      report.bursts.largest_burst =
          std::max(report.bursts.largest_burst, length);
    }
  };
  for (std::size_t i = 1; i < starts.size(); ++i) {
    if (starts[i] == starts[i - 1]) {
      ++run;
    } else {
      close_run(run);
      run = 1;
    }
  }
  close_run(run);

  report.interarrival_autocorrelation =
      autocorrelation(scoped.system_interarrivals(), max_lag);

  // Daily counts across the system's observed span; days without
  // failures count as zeros.
  std::vector<double> counts(static_cast<std::size_t>(span_days), 0.0);
  for (const Seconds t : starts) {
    counts[static_cast<std::size_t>(t / kSecondsPerDay - first_day)] += 1.0;
  }
  const double mean = hpcfail::stats::mean(counts);
  report.daily_dispersion =
      mean > 0.0 ? hpcfail::stats::variance(counts) / mean : 0.0;
  return report;
}

}  // namespace hpcfail::analysis
