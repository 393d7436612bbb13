// The one stage timer: what ScopedTimer records, when it records, and
// that it measures even while obs is off (the profile table needs that).
#include "obs/timer.hpp"

#include <gtest/gtest.h>

#include "obs/metrics.hpp"

namespace hpcfail::obs {
namespace {

// Timers record into the global registry via the default argument in
// production code; tests pass their own registry for isolation.

void burn_cpu() {
  volatile double sink = 0.0;
  for (int i = 0; i < 200000; ++i) sink = sink + 1e-9;
}

TEST(ScopedTimer, RecordsIntoLatencyHistogram) {
  Registry reg;
  {
    ScopedTimer timer("fit", false, reg);
  }
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "fit.seconds");
  EXPECT_EQ(snap.histograms[0].count, 1u);
}

TEST(ScopedTimer, StopIsIdempotent) {
  Registry reg;
  ScopedTimer timer("once", true, reg);
  timer.stop();
  const double elapsed = timer.elapsed_seconds();
  const double cpu = timer.cpu_seconds();
  burn_cpu();
  timer.stop();  // second stop: no second record, readings frozen
  EXPECT_DOUBLE_EQ(timer.elapsed_seconds(), elapsed);
  EXPECT_DOUBLE_EQ(timer.cpu_seconds(), cpu);
  EXPECT_EQ(reg.histogram("once.seconds").count(), 1u);
  EXPECT_EQ(reg.histogram("once.cpu_seconds").count(), 1u);
}

TEST(ScopedTimer, RecordsCpuSecondsOnlyWhenAsked) {
  Registry reg;
  {
    ScopedTimer wall("wall", false, reg);
    ScopedTimer both("both", true, reg);
    burn_cpu();
    EXPECT_EQ(wall.cpu_seconds(), 0.0);
    EXPECT_GT(both.cpu_seconds(), 0.0);
  }
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.histograms.size(), 3u);  // sorted by name
  EXPECT_EQ(snap.histograms[0].name, "both.cpu_seconds");
  EXPECT_EQ(snap.histograms[1].name, "both.seconds");
  EXPECT_EQ(snap.histograms[2].name, "wall.seconds");
  for (const auto& h : snap.histograms) EXPECT_EQ(h.count, 1u) << h.name;
}

TEST(ScopedTimer, MeasuresButRecordsNothingWhileDisabled) {
  Registry reg;
  disable();
  {
    ScopedTimer timer("quiet", true, reg);
    burn_cpu();
    timer.stop();
    EXPECT_GT(timer.elapsed_seconds(), 0.0);
    EXPECT_GT(timer.cpu_seconds(), 0.0);
  }
  enable();
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.counters.empty());
}

TEST(Clocks, CpuAdvancesMonotonically) {
  const double c0 = process_cpu_seconds();
  burn_cpu();
  EXPECT_GE(process_cpu_seconds(), c0);
}

}  // namespace
}  // namespace hpcfail::obs
