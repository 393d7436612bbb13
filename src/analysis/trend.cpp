#include "analysis/trend.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "obs/timer.hpp"
#include "trace/index.hpp"

namespace hpcfail::analysis {

namespace {

// Node-hours of `sys` in production during [from, to).
double node_hours_in_window(const trace::SystemInfo& sys, Seconds from,
                            Seconds to) {
  double hours = 0.0;
  for (const trace::NodeCategory& c : sys.categories) {
    const Seconds begin = std::max(from, c.production_start);
    const Seconds end = std::min(to, c.production_end);
    if (end > begin) {
      hours += static_cast<double>(c.node_count) *
               static_cast<double>(end - begin) /
               static_cast<double>(kSecondsPerHour);
    }
  }
  return hours;
}

}  // namespace

TrendReport reliability_trend(const trace::FailureDataset& dataset,
                              const trace::SystemCatalog& catalog,
                              int system_id, int window_months) {
  hpcfail::obs::ScopedTimer timer("analysis.trend");
  HPCFAIL_EXPECTS(window_months >= 1, "window must be at least one month");
  const trace::SystemInfo& sys = catalog.system(system_id);
  const trace::DatasetView records = dataset.view().for_system(system_id);
  HPCFAIL_EXPECTS(!records.empty(), "system has no failures in the dataset");

  const Seconds start = sys.production_start();
  const int life_months = months_between(start, sys.production_end());
  HPCFAIL_EXPECTS(life_months >= 2 * window_months,
                  "production time shorter than two windows");

  TrendReport report;
  report.system_id = system_id;
  report.window_months = window_months;

  const auto month_to_time = [start](int month) {
    return start + static_cast<Seconds>(static_cast<double>(month) *
                                        kSecondsPerMonth);
  };

  for (int month = window_months; month <= life_months; ++month) {
    const Seconds from = month_to_time(month - window_months);
    const Seconds to = month_to_time(month);
    TrendPoint point;
    point.month = month;
    double downtime_minutes = 0.0;
    // Each sliding window is a binary-searched slice, not a rescan of the
    // system's whole history.
    const trace::DatasetView window = records.between(from, to);
    point.failures = window.size();
    downtime_minutes = window.total_downtime_minutes();
    const double hours = node_hours_in_window(sys, from, to);
    point.node_mtbf_hours =
        point.failures > 0 ? hours / static_cast<double>(point.failures)
                           : hours;
    point.mean_repair_minutes =
        point.failures > 0
            ? downtime_minutes / static_cast<double>(point.failures)
            : 0.0;
    report.points.push_back(point);
  }

  HPCFAIL_ASSERT(!report.points.empty());
  const double first = report.points.front().node_mtbf_hours;
  const double last = report.points.back().node_mtbf_hours;
  report.mtbf_growth = first > 0.0 ? last / first : 0.0;
  return report;
}

}  // namespace hpcfail::analysis
