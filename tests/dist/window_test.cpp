// Streaming-accumulator oracles: SuffStats::add/merge against the batch
// compute() pass, SlidingSuffStats windows against brute-force rescans,
// and fit_report_from_stats against the rescanning fit_report. Lives in
// the calibration tier with the other differential oracles.
#include "dist/window.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "dist/fit.hpp"
#include "dist/suffstats.hpp"
#include "testkit/generators.hpp"

namespace hpcfail::dist {
namespace {

std::vector<double> lognormal_sample(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::lognormal_distribution<double> d(2.0, 1.2);
  std::vector<double> xs(n);
  for (double& x : xs) x = d(rng);
  return xs;
}

TEST(SuffStatsStreaming, AddIsBitIdenticalToCompute) {
  // compute() is a loop over add(), so the two agree in every field: on a
  // lognormal sample and on 60 samples from the stock gap generator, some
  // of whose values sit below the 1 s floor.
  std::vector<std::pair<std::vector<double>, double>> cases = {
      {lognormal_sample(500, 7), 0.5}};
  const auto gaps = testkit::vectors(testkit::positive_reals(3600.0), 2, 400);
  Rng rng(0x5eed03);
  for (int c = 0; c < 60; ++c) cases.emplace_back(gaps.sample(rng), 1.0);
  for (const auto& [xs, floor] : cases) {
    const SuffStats batch = SuffStats::compute(xs, floor);
    SuffStats streamed;
    streamed.floor_at = floor;
    for (const double x : xs) streamed.add(x);
    EXPECT_EQ(streamed.n, batch.n);
    EXPECT_EQ(streamed.floor_at, batch.floor_at);
    EXPECT_EQ(streamed.sum_raw, batch.sum_raw);
    EXPECT_EQ(streamed.shift, batch.shift);
    EXPECT_EQ(streamed.mean_dev, batch.mean_dev);
    EXPECT_EQ(streamed.m2, batch.m2);
    EXPECT_EQ(streamed.log_shift, batch.log_shift);
    EXPECT_EQ(streamed.log_mean_dev, batch.log_mean_dev);
    EXPECT_EQ(streamed.log_m2, batch.log_m2);
    EXPECT_EQ(streamed.min, batch.min);
    EXPECT_EQ(streamed.max, batch.max);
  }
}

TEST(SuffStatsStreaming, MergeMatchesConcatenationToFloatNoise) {
  const std::vector<double> xs = lognormal_sample(800, 13);
  const SuffStats whole = SuffStats::compute(xs, 1e-9);
  SuffStats left = SuffStats::compute(
      std::vector<double>(xs.begin(), xs.begin() + 300), 1e-9);
  const SuffStats right = SuffStats::compute(
      std::vector<double>(xs.begin() + 300, xs.end()), 1e-9);
  left.merge(right);
  EXPECT_EQ(left.n, whole.n);
  EXPECT_NEAR(left.sum_raw, whole.sum_raw, 1e-12 * whole.sum_raw);
  EXPECT_EQ(left.min, whole.min);
  EXPECT_EQ(left.max, whole.max);
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12 * whole.mean());
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-12 * whole.variance());
  EXPECT_NEAR(left.cv_squared(), whole.cv_squared(),
              1e-12 * whole.cv_squared());
  EXPECT_NEAR(left.log_shift + left.log_mean_dev,
              whole.log_shift + whole.log_mean_dev, 1e-12);
  EXPECT_NEAR(left.log_m2, whole.log_m2, 1e-12 * whole.log_m2);
}

TEST(SuffStatsStreaming, MergeRejectsFloorMismatch) {
  SuffStats a;
  a.floor_at = 1.0;
  a.add(2.0);
  SuffStats b;
  b.floor_at = 2.0;
  b.add(3.0);
  EXPECT_THROW(a.merge(b), InvalidArgument);
  // Merging an empty accumulator is a no-op regardless of floor.
  SuffStats empty;
  empty.floor_at = 123.0;
  EXPECT_NO_THROW(a.merge(empty));
  EXPECT_EQ(a.n, 1u);
}

// One synthetic event stream shared by the sliding-window oracles.
struct Event {
  Seconds at;
  double value;
};

std::vector<Event> event_stream(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<Seconds> gap(1, 7200);
  std::lognormal_distribution<double> value(3.0, 1.5);
  std::vector<Event> events;
  Seconds at = to_epoch(2004, 1, 1);
  for (std::size_t i = 0; i < n; ++i) {
    at += gap(rng);
    events.push_back({at, value(rng)});
  }
  return events;
}

/// Brute-force reference with the documented bucket semantics: the
/// window covers every event whose *bucket* intersects [now - w, now].
SuffStats brute_force_window(const std::vector<Event>& events, Seconds now,
                             Seconds window, Seconds bucket,
                             double floor_at) {
  const auto bucket_index = [bucket](Seconds at) {
    Seconds q = at / bucket;
    if (at % bucket != 0 && at < 0) --q;
    return q;
  };
  const Seconds lo = bucket_index(now - window);
  const Seconds hi = bucket_index(now);
  std::vector<double> xs;
  for (const Event& e : events) {
    const Seconds idx = bucket_index(e.at);
    if (idx >= lo && idx <= hi) xs.push_back(e.value);
  }
  SuffStats out;
  out.floor_at = floor_at;
  if (!xs.empty()) out = SuffStats::compute(xs, floor_at);
  return out;
}

TEST(SlidingSuffStats, WindowMatchesBruteForceRescan) {
  const std::vector<Event> events = event_stream(2000, 17);
  SlidingSuffStats::Options opts;
  opts.bucket_seconds = kSecondsPerHour;
  opts.max_buckets = 100000;  // retain everything: pure window semantics
  opts.floor_at = 1e-9;
  SlidingSuffStats sliding(opts);
  for (const Event& e : events) sliding.add(e.at, e.value);

  const Seconds now = sliding.latest_at();
  for (const Seconds window :
       {Seconds{1}, kSecondsPerHour, 24 * kSecondsPerHour,
        24 * 7 * kSecondsPerHour, 24 * 365 * kSecondsPerHour}) {
    SCOPED_TRACE("window=" + std::to_string(window));
    const SuffStats got = sliding.window_stats(now, window);
    const SuffStats want = brute_force_window(events, now, window,
                                              opts.bucket_seconds,
                                              opts.floor_at);
    EXPECT_EQ(got.n, want.n);
    if (want.n == 0) continue;
    EXPECT_NEAR(got.mean(), want.mean(), 1e-10 * want.mean());
    EXPECT_NEAR(got.variance(), want.variance(), 1e-10 * want.variance());
    EXPECT_NEAR(got.log_shift + got.log_mean_dev,
                want.log_shift + want.log_mean_dev, 1e-10);
    EXPECT_EQ(got.min, want.min);
    EXPECT_EQ(got.max, want.max);
  }
  // The widest window covers the whole stream.
  EXPECT_EQ(
      sliding.window_stats(now, 24 * 365 * kSecondsPerHour).n,
      events.size());
}

TEST(SlidingSuffStats, WindowPastTheLowestSecondsCoversEverything) {
  // Regression: now - window overflowed for a pre-1970 `now` and the
  // widest window /report accepts (signed overflow under UBSan, an
  // empty window without it).
  SlidingSuffStats sliding;
  const Seconds march_1965 = to_epoch(1965, 3, 1);
  for (int i = 0; i < 3; ++i) {
    sliding.add(march_1965 + i * kSecondsPerHour, 30.0);
  }
  const Seconds lowest = std::numeric_limits<Seconds>::min();
  const Seconds widest = std::numeric_limits<Seconds>::max();
  EXPECT_EQ(sliding.window_stats(sliding.latest_at(), widest).n, 3u);
  EXPECT_EQ(sliding.window_stats(lowest, widest).n, 0u);
}

TEST(SlidingSuffStats, MidStreamWindowsMatchTotalUpToNow) {
  // Windows queried while events keep arriving (the daemon's real mode).
  const std::vector<Event> events = event_stream(1000, 29);
  SlidingSuffStats sliding;
  std::vector<Event> seen;
  for (std::size_t i = 0; i < events.size(); ++i) {
    sliding.add(events[i].at, events[i].value);
    seen.push_back(events[i]);
    if (i % 97 != 0) continue;
    const Seconds now = sliding.latest_at();
    const Seconds window = 24 * kSecondsPerHour;
    const SuffStats got = sliding.window_stats(now, window);
    const SuffStats want = brute_force_window(
        seen, now, window, kSecondsPerHour, sliding.options().floor_at);
    ASSERT_EQ(got.n, want.n) << "after event " << i;
  }
}

TEST(SlidingSuffStats, EvictsOldBucketsAndCountsDrops) {
  SlidingSuffStats::Options opts;
  opts.bucket_seconds = 60;
  opts.max_buckets = 3;
  SlidingSuffStats sliding(opts);
  for (int i = 0; i < 10; ++i) {
    sliding.add(static_cast<Seconds>(i) * 60, 1.0);
  }
  EXPECT_EQ(sliding.bucket_count(), 3u);
  EXPECT_EQ(sliding.dropped(), 7u);
  EXPECT_EQ(sliding.size(), 3u);
  // A stale arrival older than the retained range is dropped, not added.
  sliding.add(0, 1.0);
  EXPECT_EQ(sliding.dropped(), 8u);
  EXPECT_EQ(sliding.size(), 3u);
}

TEST(SlidingSuffStats, EvictBeforeDropsExactlyTheBucketsBelowTheHorizon) {
  SlidingSuffStats::Options opts;
  opts.bucket_seconds = 60;
  SlidingSuffStats sliding(opts);
  for (int i = 0; i < 10; ++i) {
    sliding.add(static_cast<Seconds>(i) * 60, static_cast<double>(i + 1));
  }
  ASSERT_EQ(sliding.size(), 10u);
  const SuffStats before = sliding.total_stats();
  const std::uint64_t dropped_before = sliding.dropped();

  // Horizon lands mid-bucket 4: buckets 0..3 go, bucket 4 onward stays.
  sliding.evict_before(4 * 60 + 30);
  const SuffStats rest = sliding.total_stats();
  EXPECT_EQ(sliding.dropped() - dropped_before, 4u);
  EXPECT_EQ(before.n - rest.n, 4u);
  EXPECT_DOUBLE_EQ(before.sum_raw - rest.sum_raw, 1.0 + 2.0 + 3.0 + 4.0);
  EXPECT_EQ(sliding.size(), 6u);
  EXPECT_EQ(sliding.bucket_count(), 6u);

  // The remaining window still answers queries over the surviving buckets.
  EXPECT_EQ(rest.n, 6u);
  EXPECT_DOUBLE_EQ(rest.sum_raw, 5.0 + 6.0 + 7.0 + 8.0 + 9.0 + 10.0);
}

TEST(SlidingSuffStats, EventOnTheEvictionBoundaryIsDroppedNotResurrected) {
  SlidingSuffStats::Options opts;
  opts.bucket_seconds = 100;
  SlidingSuffStats sliding(opts);
  sliding.add(0, 1.0);
  sliding.add(500, 1.0);
  const std::uint64_t n_before = sliding.total_stats().n;
  sliding.evict_before(500);  // bucket 0..4 go
  EXPECT_EQ(n_before - sliding.total_stats().n, 1u);
  EXPECT_EQ(sliding.dropped(), 1u);
  ASSERT_EQ(sliding.size(), 1u);

  // A late arrival landing on an evicted bucket's index must be counted in
  // dropped() and must never reopen that bucket.
  const std::uint64_t dropped_before = sliding.dropped();
  sliding.add(499, 7.0);  // bucket 4: strictly below the horizon bucket
  EXPECT_EQ(sliding.dropped(), dropped_before + 1);
  EXPECT_EQ(sliding.size(), 1u);
  EXPECT_EQ(sliding.total_stats().n, 1u);

  // Exactly at the horizon bucket is still live.
  sliding.add(501, 2.0);
  EXPECT_EQ(sliding.size(), 2u);
}

TEST(SlidingSuffStats, EvictionFloorSurvivesAnEmptiedWindow) {
  SlidingSuffStats::Options opts;
  opts.bucket_seconds = 60;
  SlidingSuffStats sliding(opts);
  sliding.add(0, 1.0);
  sliding.add(60, 1.0);
  sliding.evict_before(10'000);  // evicts everything
  EXPECT_EQ(sliding.dropped(), 2u);
  EXPECT_EQ(sliding.total_stats().n, 0u);
  EXPECT_EQ(sliding.size(), 0u);
  EXPECT_EQ(sliding.bucket_count(), 0u);

  // With no buckets left there is no front-index guard: only the remembered
  // floor can block resurrection of the evicted range.
  sliding.add(120, 5.0);
  EXPECT_EQ(sliding.size(), 0u);
  EXPECT_EQ(sliding.dropped(), 3u);
  sliding.add(10'020, 5.0);  // at/after the horizon bucket: accepted
  EXPECT_EQ(sliding.size(), 1u);
}

TEST(SlidingSuffStats, EvictBeforeMatchesAnEventListModel) {
  SlidingSuffStats::Options opts;
  opts.bucket_seconds = kSecondsPerHour;
  SlidingSuffStats sliding(opts);
  const auto bucket_index = [&](Seconds at) { return at / opts.bucket_seconds; };

  std::mt19937 rng(99);
  std::vector<Event> events = event_stream(600, 23);
  std::vector<Event> live;  // the model: events not yet evicted/dropped
  std::uint64_t model_dropped = 0;
  std::uint64_t model_evicted = 0;
  std::int64_t model_floor = std::numeric_limits<std::int64_t>::min();
  const auto front_index = [&] {
    std::int64_t front = std::numeric_limits<std::int64_t>::max();
    for (const Event& ev : live) front = std::min(front, bucket_index(ev.at));
    return front;
  };

  std::uniform_int_distribution<int> action(0, 19);
  std::uniform_int_distribution<std::size_t> pick(0, events.size() - 1);
  for (std::size_t i = 0; i < events.size(); ++i) {
    // Mostly in-order arrivals, occasionally a random (possibly stale) event,
    // occasionally a compaction cut at a previously seen timestamp.
    Event e = events[i];
    const int roll = action(rng);
    if (roll < 3) e = events[pick(rng)];
    const std::int64_t idx = bucket_index(e.at);
    sliding.add(e.at, e.value);
    // The documented drop rule: below the eviction floor, or staler than
    // every retained bucket.
    if (idx < model_floor || (!live.empty() && idx < front_index())) {
      ++model_dropped;
    } else {
      live.push_back(e);
    }

    if (roll == 19) {
      const Seconds horizon = events[pick(rng)].at;
      const std::uint64_t dropped_before = sliding.dropped();
      const std::uint64_t n_before = sliding.total_stats().n;
      sliding.evict_before(horizon);
      model_floor = std::max(model_floor, bucket_index(horizon));
      std::vector<Event> survivors;
      std::uint64_t cut = 0;
      for (const Event& ev : live) {
        if (bucket_index(ev.at) < bucket_index(horizon)) {
          ++cut;
        } else {
          survivors.push_back(ev);
        }
      }
      live.swap(survivors);
      model_evicted += cut;
      ASSERT_EQ(sliding.dropped() - dropped_before, cut)
          << "evict at step " << i;
      ASSERT_EQ(n_before - sliding.total_stats().n, cut)
          << "evict at step " << i;
    }
    ASSERT_EQ(sliding.size(), live.size()) << "after step " << i;
    ASSERT_EQ(sliding.dropped(), model_dropped + model_evicted)
        << "after step " << i;
    ASSERT_EQ(sliding.total_stats().n, live.size()) << "after step " << i;
  }
  EXPECT_GT(model_evicted, 0u);
  EXPECT_GT(model_dropped, 0u);
}

TEST(StreamingFits, MatchRescanningFitReport) {
  // Both reports run the same standard-family engine on the same
  // statistics, so they agree bit for bit; only KS needs the sample.
  const std::vector<double> xs = lognormal_sample(1500, 41);
  const double floor = 1e-9;
  const SuffStats stats = SuffStats::compute(xs, floor);

  const FitReport streaming = fit_report_from_stats(stats);
  const FitReport rescan = fit_report(xs, streamable_families(), floor);

  ASSERT_EQ(streaming.size(), rescan.size());
  EXPECT_EQ(streaming.sample_size, rescan.sample_size);
  for (std::size_t i = 0; i < streaming.size(); ++i) {
    EXPECT_EQ(streaming[i].family, rescan[i].family) << "rank " << i;
    EXPECT_EQ(streaming[i].nll, rescan[i].nll)
        << to_string(streaming[i].family);
    EXPECT_EQ(streaming[i].aic, rescan[i].aic);
    EXPECT_EQ(streaming[i].model->describe(), rescan[i].model->describe());
    EXPECT_EQ(streaming[i].model->mean(), rescan[i].model->mean());
    EXPECT_EQ(streaming[i].ks, 0.0);
    EXPECT_GT(rescan[i].ks, 0.0);
  }
}

TEST(StreamingFits, DegenerateStatsThrowOrShrink) {
  EXPECT_THROW(fit_report_from_stats(SuffStats{}), FitError);
  // A constant sample: exponential still fits, the two-parameter
  // families are degenerate and must be counted, not crash.
  SuffStats constant;
  constant.floor_at = 1e-9;
  for (int i = 0; i < 10; ++i) constant.add(5.0);
  const FitReport report = fit_report_from_stats(constant);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report.best().family, Family::exponential);
  EXPECT_EQ(report.failed_families, 2u);
}

}  // namespace
}  // namespace hpcfail::dist
