#include "analysis/periodicity.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "obs/timer.hpp"

namespace hpcfail::analysis {

PeriodicityReport periodicity(const trace::FailureDataset& dataset) {
  hpcfail::obs::ScopedTimer timer("analysis.periodicity");
  HPCFAIL_EXPECTS(!dataset.empty(), "periodicity of empty dataset");
  PeriodicityReport report;
  // Whole-trace streaming: records() is already a zero-copy span, no
  // index needed.
  for (const trace::FailureRecord& r : dataset.records()) {
    report.by_hour[static_cast<std::size_t>(hour_of_day(r.start))] += 1.0;
    report.by_weekday[static_cast<std::size_t>(day_of_week(r.start))] += 1.0;
  }

  // Smooth hourly counts over a 3-hour window before taking the ratio, so
  // a single noisy hour doesn't define the peak or trough.
  std::array<double, 24> smooth{};
  for (std::size_t h = 0; h < 24; ++h) {
    smooth[h] = (report.by_hour[(h + 23) % 24] + report.by_hour[h] +
                 report.by_hour[(h + 1) % 24]) /
                3.0;
  }
  const double hi = *std::max_element(smooth.begin(), smooth.end());
  const double lo = *std::min_element(smooth.begin(), smooth.end());
  // A zero trough means the peak-to-trough ratio diverges; returning the
  // raw peak count here would let a count masquerade as a ratio.
  report.day_night_ratio =
      lo > 0.0 ? hi / lo : std::numeric_limits<double>::infinity();

  const double weekend = (report.by_weekday[0] + report.by_weekday[6]) / 2.0;
  double weekday = 0.0;
  for (std::size_t d = 1; d <= 5; ++d) weekday += report.by_weekday[d];
  weekday /= 5.0;
  report.weekday_weekend_ratio =
      weekend > 0.0 ? weekday / weekend
                    : std::numeric_limits<double>::infinity();
  return report;
}

}  // namespace hpcfail::analysis
