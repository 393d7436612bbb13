// Registry semantics: handle identity, snapshot determinism, histogram
// bucket math, the span cap, and recording from many threads at once
// (the latter is what the TSan job exercises).
#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

namespace hpcfail::obs {
namespace {

TEST(Registry, HandlesAreStableAndGetOrCreate) {
  Registry reg;
  Counter& a = reg.counter("x.count");
  Counter& b = reg.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.add(2);
  b.add(3);
  EXPECT_EQ(reg.counter("x.count").value(), 5u);

  Gauge& g = reg.gauge("x.level");
  g.set(1.5);
  g.add(0.25);
  EXPECT_DOUBLE_EQ(reg.gauge("x.level").value(), 1.75);

  // Same name, different kinds: independent maps, no collision.
  reg.histogram("x.count").record(1.0);
  EXPECT_EQ(reg.counter("x.count").value(), 5u);
}

TEST(Registry, SnapshotIsSortedByName) {
  Registry reg;
  reg.counter("zeta").add(1);
  reg.counter("alpha").add(1);
  reg.counter("mid").add(1);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "alpha");
  EXPECT_EQ(snap.counters[1].first, "mid");
  EXPECT_EQ(snap.counters[2].first, "zeta");
}

TEST(Registry, ResetDropsEverything) {
  Registry reg;
  reg.counter("c").add(1);
  reg.gauge("g").set(2.0);
  reg.histogram("h").record(3.0);
  reg.reset();
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(Histogram, BucketBoundsAreMonotonic) {
  for (std::size_t i = 1; i < Histogram::kBucketCount; ++i) {
    EXPECT_LT(Histogram::bucket_bound(i - 1), Histogram::bucket_bound(i));
  }
  EXPECT_TRUE(std::isinf(
      Histogram::bucket_bound(Histogram::kBucketCount - 1)));
}

TEST(Histogram, BucketIndexMatchesBounds) {
  // Every value must land in the first bucket whose bound is >= v.
  for (const double v : {1e-12, 1e-9, 3e-4, 0.99, 1.0, 17.0, 1e8, 5e9}) {
    const std::size_t i = Histogram::bucket_index(v);
    EXPECT_LE(v, Histogram::bucket_bound(i)) << "v=" << v;
    if (i > 0) {
      EXPECT_GT(v, Histogram::bucket_bound(i - 1)) << "v=" << v;
    }
  }
}

TEST(Histogram, TracksCountSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  h.record(2.0);
  h.record(8.0);
  h.record(0.5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
}

TEST(Registry, ConcurrentRecordingIsLossless) {
  // 8 threads hammering one counter, one gauge, and one histogram, plus
  // per-thread lazily created metrics so get-or-create races too. Run
  // under TSan this is the registry's data-race test; in any build the
  // relaxed-atomic counts must still be exact.
  Registry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, t] {
      Counter& shared = reg.counter("shared.count");
      Histogram& hist = reg.histogram("shared.latency");
      for (int i = 0; i < kPerThread; ++i) {
        shared.add(1);
        hist.record(1e-3 * static_cast<double>(i + 1));
        reg.gauge("shared.level").add(1.0);
        // First-use creation race: each thread creates its own late.
        if (i == kPerThread / 2) {
          reg.counter("thread." + std::to_string(t)).add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(reg.counter("shared.count").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(reg.histogram("shared.latency").count(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(reg.gauge("shared.level").value(),
                   static_cast<double>(kThreads) * kPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.counter("thread." + std::to_string(t)).value(), 1u);
  }
  // Bucket counts must add up to the total.
  const MetricsSnapshot snap = reg.snapshot();
  for (const auto& h : snap.histograms) {
    std::uint64_t bucketed = 0;
    for (const auto& [bound, count] : h.buckets) bucketed += count;
    EXPECT_EQ(bucketed, h.count) << h.name;
  }
}

TEST(Enabled, ToggleRoundTrips) {
  EXPECT_TRUE(enabled());
  disable();
  EXPECT_FALSE(enabled());
  enable();
  EXPECT_TRUE(enabled());
}

}  // namespace
}  // namespace hpcfail::obs
