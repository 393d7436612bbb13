#include "analysis/correlation.hpp"

#include <map>

#include "common/error.hpp"
#include "obs/timer.hpp"
#include "stats/descriptive.hpp"
#include "trace/index.hpp"

namespace hpcfail::analysis {

std::vector<double> autocorrelation(std::span<const double> sequence,
                                    std::size_t max_lag) {
  HPCFAIL_EXPECTS(max_lag >= 1, "max_lag must be at least 1");
  HPCFAIL_EXPECTS(sequence.size() >= max_lag + 2,
                  "sequence too short for the requested lag");
  const double m = hpcfail::stats::mean(sequence);
  double denom = 0.0;
  for (const double x : sequence) denom += (x - m) * (x - m);
  HPCFAIL_EXPECTS(denom > 0.0,
                  "autocorrelation undefined for a constant sequence");

  std::vector<double> acf;
  acf.reserve(max_lag);
  for (std::size_t lag = 1; lag <= max_lag; ++lag) {
    double num = 0.0;
    for (std::size_t i = 0; i + lag < sequence.size(); ++i) {
      num += (sequence[i] - m) * (sequence[i + lag] - m);
    }
    acf.push_back(num / denom);
  }
  return acf;
}

CorrelationReport correlation_analysis(const trace::FailureDataset& dataset,
                                       int system_id, std::size_t max_lag) {
  hpcfail::obs::ScopedTimer timer("analysis.correlation");
  const trace::DatasetView scoped = dataset.view().for_system(system_id);
  HPCFAIL_EXPECTS(scoped.size() >= 32,
                  "too few failures for correlation analysis");

  CorrelationReport report;

  // Simultaneous bursts: group records by exact start second.
  report.bursts.total_failures = scoped.size();
  std::size_t run = 1;
  const auto records = scoped.records();
  const auto close_run = [&report](std::size_t length) {
    if (length >= 2) {
      ++report.bursts.burst_events;
      report.bursts.burst_failures += length;
      report.bursts.largest_burst =
          std::max(report.bursts.largest_burst, length);
    }
  };
  for (std::size_t i = 1; i < records.size(); ++i) {
    if (records[i].start == records[i - 1].start) {
      ++run;
    } else {
      close_run(run);
      run = 1;
    }
  }
  close_run(run);

  report.interarrival_autocorrelation =
      autocorrelation(scoped.system_interarrivals(), max_lag);

  // Daily counts across the system's observed span.
  std::map<std::int64_t, double> daily;
  for (const trace::FailureRecord& r : records) {
    ++daily[r.start / kSecondsPerDay];
  }
  // Days without failures count as zeros.
  const std::int64_t first_day = records.front().start / kSecondsPerDay;
  const std::int64_t last_day = records.back().start / kSecondsPerDay;
  std::vector<double> counts;
  counts.reserve(static_cast<std::size_t>(last_day - first_day + 1));
  for (std::int64_t day = first_day; day <= last_day; ++day) {
    const auto it = daily.find(day);
    counts.push_back(it != daily.end() ? it->second : 0.0);
  }
  const double mean = hpcfail::stats::mean(counts);
  report.daily_dispersion =
      mean > 0.0 ? hpcfail::stats::variance(counts) / mean : 0.0;
  return report;
}

}  // namespace hpcfail::analysis
