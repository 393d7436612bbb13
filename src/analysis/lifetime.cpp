#include "analysis/lifetime.hpp"

#include <algorithm>

#include "analysis/root_cause.hpp"
#include "common/error.hpp"
#include "obs/timer.hpp"
#include "trace/index.hpp"

namespace hpcfail::analysis {

LifetimeCurve lifetime_curve(const trace::FailureDataset& dataset,
                             const trace::SystemCatalog& catalog,
                             int system_id) {
  hpcfail::obs::ScopedTimer timer("analysis.lifetime");
  const trace::SystemInfo& sys = catalog.system(system_id);
  const trace::DatasetView records = dataset.view().for_system(system_id);
  HPCFAIL_EXPECTS(!records.empty(), "system has no failures in the dataset");

  const Seconds start = sys.production_start();
  const int total_months =
      months_between(start, sys.production_end()) + 1;

  LifetimeCurve curve;
  curve.system_id = system_id;
  curve.months.resize(static_cast<std::size_t>(total_months));
  for (int m = 0; m < total_months; ++m) {
    curve.months[static_cast<std::size_t>(m)].month = m;
  }

  for (const trace::FailureRecord& r : records.records()) {
    int m = r.start >= start ? months_between(start, r.start) : 0;
    m = std::min(m, total_months - 1);
    curve.months[static_cast<std::size_t>(m)]
        .by_cause[breakdown_index(r.cause)] += 1.0;
  }

  double peak = -1.0;
  for (const MonthlyFailures& mf : curve.months) {
    if (mf.total() > peak) {
      peak = mf.total();
      curve.peak_month = mf.month;
    }
  }

  const int quarter = std::max(1, total_months / 4);
  double early = 0.0;
  double late = 0.0;
  for (const MonthlyFailures& mf : curve.months) {
    if (mf.month < quarter) {
      early += mf.total();
    } else {
      late += mf.total();
    }
  }
  const double early_rate = early / static_cast<double>(quarter);
  const double late_rate =
      late / static_cast<double>(std::max(1, total_months - quarter));
  curve.early_to_late_ratio =
      late_rate > 0.0 ? early_rate / late_rate : early_rate;
  return curve;
}

}  // namespace hpcfail::analysis
