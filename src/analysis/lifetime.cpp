#include "analysis/lifetime.hpp"

#include <algorithm>
#include <span>

#include "analysis/root_cause.hpp"
#include "common/error.hpp"
#include "obs/timer.hpp"
#include "trace/index.hpp"

namespace hpcfail::analysis {

namespace {

/// The first instant t in (after, end] with months_between(start, t) >=
/// month, for months_between(start, after) == month - 1 and
/// months_between(start, end) >= month. months_between steps by at most
/// one a second and a calendar month is at most 31 days long, so the
/// search starts in (after, after + 32 days].
Seconds month_boundary(Seconds start, Seconds after, Seconds end, int month) {
  constexpr Seconds kBracket = 32 * kSecondsPerDay;
  Seconds lo = after;
  Seconds hi = end - after > kBracket ? after + kBracket : end;
  if (months_between(start, hi) < month) {
    lo = hi;
    hi = end;
  }
  // months_between(start, lo) < month <= months_between(start, hi)
  while (hi - lo > 1) {
    const Seconds mid = lo + (hi - lo) / 2;
    if (months_between(start, mid) >= month) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace

LifetimeCurve lifetime_curve(const trace::FailureDataset& dataset,
                             const trace::SystemCatalog& catalog,
                             int system_id) {
  hpcfail::obs::ScopedTimer timer("analysis.lifetime");
  const trace::SystemInfo& sys = catalog.system(system_id);
  const trace::DatasetView records = dataset.view().for_system(system_id);
  HPCFAIL_EXPECTS(!records.empty(), "system has no failures in the dataset");

  const Seconds start = sys.production_start();
  const Seconds end = sys.production_end();
  const int total_months = months_between(start, end) + 1;

  LifetimeCurve curve;
  curve.system_id = system_id;
  curve.months.resize(static_cast<std::size_t>(total_months));
  for (int m = 0; m < total_months; ++m) {
    curve.months[static_cast<std::size_t>(m)].month = m;
  }

  // The records are start-sorted, so one walk over the month boundaries
  // buckets them: a record's month is the number of boundaries at or
  // before its start, which is months_between(start, r.start) clamped to
  // [0, total_months - 1].
  const std::span<const Seconds> starts = records.records().starts();
  const std::span<const trace::RootCause> causes = records.records().causes();
  int m = 0;
  Seconds next = total_months > 1 ? month_boundary(start, start, end, 1) : 0;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    while (m + 1 < total_months && starts[i] >= next) {
      ++m;
      if (m + 1 < total_months) next = month_boundary(start, next, end, m + 1);
    }
    curve.months[static_cast<std::size_t>(m)]
        .by_cause[breakdown_index(causes[i])] += 1.0;
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
