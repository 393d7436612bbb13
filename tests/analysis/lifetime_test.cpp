#include "analysis/lifetime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/root_cause.hpp"
#include "common/error.hpp"

namespace hpcfail::analysis {
namespace {

using trace::DetailCause;
using trace::FailureDataset;
using trace::FailureRecord;
using trace::RootCause;
using trace::SystemCatalog;

FailureRecord rec(int system, Seconds start,
                  RootCause cause = RootCause::hardware,
                  DetailCause detail = DetailCause::memory_dimm) {
  FailureRecord r;
  r.system_id = system;
  r.node_id = 0;
  r.start = start;
  r.end = start + 600;
  r.cause = cause;
  r.detail = detail;
  return r;
}

TEST(LifetimeCurve, BucketsByMonthInProduction) {
  // System 22 production starts 2004-11.
  const Seconds start = to_epoch(2004, 11, 1);
  const FailureDataset ds({
      rec(22, start + 1000),
      rec(22, start + 2000),
      rec(22, to_epoch(2005, 1, 15), RootCause::software,
          DetailCause::scheduler),
  });
  const LifetimeCurve curve =
      lifetime_curve(ds, SystemCatalog::lanl(), 22);
  EXPECT_EQ(curve.system_id, 22);
  ASSERT_GE(curve.months.size(), 12u);
  EXPECT_DOUBLE_EQ(curve.months[0].total(), 2.0);
  EXPECT_DOUBLE_EQ(curve.months[2].total(), 1.0);  // Jan 2005 = month 2
  EXPECT_DOUBLE_EQ(
      curve.months[2].by_cause[breakdown_index(RootCause::software)], 1.0);
  EXPECT_EQ(curve.peak_month, 0);
}

TEST(LifetimeCurve, MonthIndicesAreSequential) {
  const FailureDataset ds({rec(22, to_epoch(2005, 3, 1))});
  const LifetimeCurve curve =
      lifetime_curve(ds, SystemCatalog::lanl(), 22);
  for (std::size_t i = 0; i < curve.months.size(); ++i) {
    EXPECT_EQ(curve.months[i].month, static_cast<int>(i));
  }
}

TEST(LifetimeCurve, EarlyToLateRatioDetectsBurnIn) {
  // Heavy first months, light afterwards -> ratio >> 1.
  std::vector<FailureRecord> records;
  const Seconds start = to_epoch(2004, 11, 1);
  for (int i = 0; i < 60; ++i) {
    records.push_back(rec(22, start + i * 3600));  // all in month 0
  }
  records.push_back(rec(22, to_epoch(2005, 9, 1)));
  const LifetimeCurve curve = lifetime_curve(
      FailureDataset(std::move(records)), SystemCatalog::lanl(), 22);
  EXPECT_GT(curve.early_to_late_ratio, 5.0);
}

TEST(LifetimeCurve, RampShapeHasLatePeak) {
  // Failures concentrated around month 7 of system 22's ~12-month life.
  std::vector<FailureRecord> records;
  for (int i = 0; i < 30; ++i) {
    records.push_back(rec(22, to_epoch(2005, 6, 1) + i * 3600));
  }
  records.push_back(rec(22, to_epoch(2004, 11, 15)));
  const LifetimeCurve curve = lifetime_curve(
      FailureDataset(std::move(records)), SystemCatalog::lanl(), 22);
  EXPECT_EQ(curve.peak_month, 7);
  EXPECT_LT(curve.early_to_late_ratio, 1.0);
}

TEST(LifetimeCurve, RejectsSystemWithNoFailures) {
  const FailureDataset ds({rec(22, to_epoch(2005, 1, 1))});
  EXPECT_THROW(lifetime_curve(ds, SystemCatalog::lanl(), 5),
               InvalidArgument);
}

TEST(LifetimeCurve, EveryRecordLandsInItsMonthsBetweenMonth) {
  // Production from Jan 31 12:34:56, so months end on clamped days (Mar 1
  // after a February without a 31st); records a second either side of
  // that time of day and of midnight, every day from before production to
  // after its end.
  trace::SystemInfo sys;
  sys.id = 1;
  sys.hw_type = 'A';
  sys.nodes = 1;
  sys.procs = 2;
  const Seconds start = to_epoch(CivilDateTime{2003, 1, 31, 12, 34, 56});
  const Seconds end = to_epoch(2005, 3, 1);
  sys.categories = {{0, 1, 2, 1.0, 0, start, end}};
  const SystemCatalog catalog({sys});

  // 45296 s is 12:34:56.
  const std::vector<Seconds> offsets = {-1, 0, 1, 45295, 45296, 45297};
  std::vector<FailureRecord> records;
  const Seconds last = end + 40 * kSecondsPerDay;
  for (Seconds day = to_epoch(2003, 1, 20); day < last; day += kSecondsPerDay) {
    for (const Seconds at : offsets) records.push_back(rec(1, day + at));
  }
  const int months = months_between(start, end) + 1;
  std::vector<double> want(static_cast<std::size_t>(months), 0.0);
  for (const FailureRecord& r : records) {
    const int m = r.start >= start ? months_between(start, r.start) : 0;
    want[static_cast<std::size_t>(std::min(m, months - 1))] += 1.0;
  }

  const LifetimeCurve curve =
      lifetime_curve(FailureDataset(std::move(records)), catalog, 1);
  ASSERT_EQ(curve.months.size(), want.size());
  for (std::size_t m = 0; m < want.size(); ++m) {
    EXPECT_EQ(curve.months[m].total(), want[m]) << "month " << m;
  }
}

}  // namespace
}  // namespace hpcfail::analysis
