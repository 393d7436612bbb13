#include "analysis/correlation.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "synth/generator.hpp"
#include "trace/index.hpp"

namespace hpcfail::analysis {
namespace {

using trace::DetailCause;
using trace::FailureDataset;
using trace::FailureRecord;
using trace::RootCause;

FailureRecord rec(int system, int node, Seconds start) {
  FailureRecord r;
  r.system_id = system;
  r.node_id = node;
  r.start = start;
  r.end = start + 60;
  r.cause = RootCause::hardware;
  r.detail = DetailCause::cpu;
  return r;
}

TEST(Autocorrelation, ZeroForIndependentSequence) {
  hpcfail::Rng rng(61);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.uniform());
  const auto acf = autocorrelation(xs, 5);
  for (const double rho : acf) {
    EXPECT_NEAR(rho, 0.0, 0.03);
  }
}

TEST(Autocorrelation, DetectsPersistence) {
  // AR(1) with coefficient 0.8: acf(k) ~ 0.8^k.
  hpcfail::Rng rng(67);
  std::vector<double> xs;
  double x = 0.0;
  for (int i = 0; i < 20000; ++i) {
    x = 0.8 * x + rng.uniform(-1.0, 1.0);
    xs.push_back(x);
  }
  const auto acf = autocorrelation(xs, 3);
  EXPECT_NEAR(acf[0], 0.8, 0.05);
  EXPECT_NEAR(acf[1], 0.64, 0.06);
  EXPECT_GT(acf[0], acf[1]);
}

TEST(Autocorrelation, ValidatesArguments) {
  const std::vector<double> tiny = {1.0, 2.0};
  EXPECT_THROW(autocorrelation(tiny, 1), InvalidArgument);
  const std::vector<double> constant = {3.0, 3.0, 3.0, 3.0, 3.0};
  EXPECT_THROW(autocorrelation(constant, 2), InvalidArgument);
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW(autocorrelation(xs, 0), InvalidArgument);
}

TEST(CorrelationAnalysis, BurstStatisticsExact) {
  std::vector<FailureRecord> records;
  const Seconds t0 = to_epoch(2002, 1, 1);
  // Burst of 3, burst of 2, and 30 lone failures.
  for (int node = 0; node < 3; ++node) records.push_back(rec(5, node, t0));
  for (int node = 0; node < 2; ++node) {
    records.push_back(rec(5, node, t0 + 5000));
  }
  for (int i = 0; i < 30; ++i) {
    records.push_back(rec(5, 0, t0 + 10000 + i * 997));
  }
  const CorrelationReport report =
      correlation_analysis(FailureDataset(std::move(records)), 5);
  EXPECT_EQ(report.bursts.total_failures, 35u);
  EXPECT_EQ(report.bursts.burst_events, 2u);
  EXPECT_EQ(report.bursts.burst_failures, 5u);
  EXPECT_EQ(report.bursts.largest_burst, 3u);
  EXPECT_NEAR(report.bursts.burst_fraction(), 5.0 / 35.0, 1e-12);
}

TEST(CorrelationAnalysis, SyntheticPioneerSystemIsCorrelatedEarly) {
  const FailureDataset ds = synth::generate_lanl_trace(42);
  const FailureDataset early =
      ds.view().between(to_epoch(1997, 1, 1), to_epoch(2000, 1, 1))
          .materialize();
  const CorrelationReport report = correlation_analysis(early, 20);
  // Section 5.3: heavy simultaneous-failure mass early on.
  EXPECT_GT(report.bursts.burst_fraction(), 0.3);
  EXPECT_GE(report.bursts.largest_burst, 3u);
  // Clustering shows up as daily-count overdispersion.
  EXPECT_GT(report.daily_dispersion, 1.5);
}

TEST(CorrelationAnalysis, LateEraMuchLessCorrelated) {
  const FailureDataset ds = synth::generate_lanl_trace(42);
  const FailureDataset early =
      ds.view().between(to_epoch(1997, 1, 1), to_epoch(2000, 1, 1))
          .materialize();
  const FailureDataset late =
      ds.view().between(to_epoch(2000, 1, 1), to_epoch(2006, 1, 1))
          .materialize();
  const CorrelationReport early_report = correlation_analysis(early, 20);
  const CorrelationReport late_report = correlation_analysis(late, 20);
  EXPECT_LT(late_report.bursts.burst_fraction(),
            early_report.bursts.burst_fraction() / 2.0);
}

TEST(CorrelationAnalysis, ThrowsOnTinySystems) {
  std::vector<FailureRecord> few;
  for (int i = 0; i < 10; ++i) {
    few.push_back(rec(1, 0, to_epoch(2000, 1, 1) + i * 1000));
  }
  EXPECT_THROW(correlation_analysis(FailureDataset(std::move(few)), 1),
               InvalidArgument);
}

TEST(CorrelationAnalysis, RejectsASpanTooLongToCountByDay) {
  // 40 failures 2.5e13 s apart span 11,284,722,223 days: one count a day
  // would be 90 GB.
  std::vector<FailureRecord> sparse;
  for (int i = 0; i < 40; ++i) {
    sparse.push_back(rec(1, 0, Seconds{25'000'000'000'000} * i));
  }
  try {
    correlation_analysis(FailureDataset(std::move(sparse)), 1);
    FAIL() << "no ValidationError";
  } catch (const ValidationError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("11284722223 days"), std::string::npos) << what;
  }

  // A span of about a million days, under the limit, is counted.
  hpcfail::Rng rng(7);
  std::vector<FailureRecord> long_lived;
  Seconds t = to_epoch(2000, 1, 1);
  for (int i = 0; i < 40; ++i) {
    long_lived.push_back(rec(1, 0, t));
    t += static_cast<Seconds>(rng.uniform() * 5e9);
  }
  const CorrelationReport report =
      correlation_analysis(FailureDataset(std::move(long_lived)), 1);
  EXPECT_GT(report.daily_dispersion, 0.0);
}

}  // namespace
}  // namespace hpcfail::analysis
