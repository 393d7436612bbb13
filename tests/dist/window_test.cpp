// Streaming-accumulator oracles: SuffStats::add/merge against the batch
// compute() pass, SlidingSuffStats windows against brute-force rescans,
// and fit_report_from_stats against the rescanning fit_report. Lives in
// the calibration tier with the other differential oracles.
#include "dist/window.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <compare>
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
  // A window keeps the max_buckets buckets behind its newest entry's, plus
  // that bucket; add() refuses (returns false for) anything older.
  SlidingSuffStats::Options opts;
  opts.bucket_seconds = 60;
  opts.max_buckets = 3;
  SlidingSuffStats sliding(opts);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(sliding.add(static_cast<Seconds>(i) * 60, 1.0));
  }
  EXPECT_EQ(sliding.bucket_count(), 4u);  // buckets 6..9
  EXPECT_EQ(sliding.size(), 4u);
  // A stale arrival older than the retained span is refused, not added.
  int refused = 0;
  for (const Seconds at : {Seconds{0}, Seconds{359}, Seconds{360}}) {
    if (!sliding.add(at, 1.0)) ++refused;
  }
  EXPECT_EQ(refused, 2);
  EXPECT_EQ(sliding.size(), 5u);
  EXPECT_EQ(sliding.total_stats().n, 5u);
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

  // Horizon lands mid-bucket 4: buckets 0..3 go, bucket 4 onward stays.
  sliding.evict_before(4 * 60 + 30);
  const SuffStats rest = sliding.total_stats();
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
  ASSERT_EQ(sliding.size(), 1u);

  // A late arrival landing on an evicted bucket's index must be refused
  // and must never reopen that bucket.
  EXPECT_FALSE(sliding.add(499, 7.0));  // bucket 4: below the horizon's
  EXPECT_EQ(sliding.size(), 1u);
  EXPECT_EQ(sliding.total_stats().n, 1u);

  // Exactly at the horizon bucket is still live.
  EXPECT_TRUE(sliding.add(501, 2.0));
  EXPECT_EQ(sliding.size(), 2u);
}

TEST(SlidingSuffStats, EvictionFloorSurvivesAnEmptiedWindow) {
  SlidingSuffStats::Options opts;
  opts.bucket_seconds = 60;
  SlidingSuffStats sliding(opts);
  sliding.add(0, 1.0);
  sliding.add(60, 1.0);
  sliding.evict_before(10'000);  // evicts everything
  EXPECT_EQ(sliding.total_stats().n, 0u);
  EXPECT_EQ(sliding.size(), 0u);
  EXPECT_EQ(sliding.bucket_count(), 0u);

  // With no buckets left only the remembered floor can block resurrection
  // of the evicted range.
  EXPECT_FALSE(sliding.add(120, 5.0));
  EXPECT_EQ(sliding.size(), 0u);
  EXPECT_TRUE(sliding.add(10'020, 5.0));  // at/after the horizon bucket
  EXPECT_EQ(sliding.size(), 1u);
}

/// Brute-force model of a window's contents: the fold of its entries,
/// each bucket's sorted by (at, node, value), buckets merged oldest first.
struct ModelEntry {
  Seconds at;
  int node;
  double value;
  auto operator<=>(const ModelEntry&) const = default;
};

SuffStats model_fold(std::vector<ModelEntry> entries, Seconds bucket,
                     double floor_at) {
  std::sort(entries.begin(), entries.end());
  SuffStats merged;
  merged.floor_at = floor_at;
  for (std::size_t i = 0; i < entries.size();) {
    SuffStats one;
    one.floor_at = floor_at;
    const Seconds idx = entries[i].at / bucket;
    for (; i < entries.size() && entries[i].at / bucket == idx; ++i) {
      one.add(entries[i].value);
    }
    merged.merge(one);
  }
  return merged;
}

void expect_same_bits(const SuffStats& got, const SuffStats& want) {
  EXPECT_EQ(got.n, want.n);
  EXPECT_EQ(got.sum_raw, want.sum_raw);
  EXPECT_EQ(got.shift, want.shift);
  EXPECT_EQ(got.mean_dev, want.mean_dev);
  EXPECT_EQ(got.m2, want.m2);
  EXPECT_EQ(got.log_shift, want.log_shift);
  EXPECT_EQ(got.log_mean_dev, want.log_mean_dev);
  EXPECT_EQ(got.log_m2, want.log_m2);
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.max, want.max);
}

TEST(SlidingSuffStats, EvictBeforeMatchesAnEventListModel) {
  // The model keeps every entry whose bucket is at or above the floor:
  // the evict_before horizon's bucket, or max_buckets behind the newest
  // entry's bucket, whichever is higher. add() refuses what lies below
  // the floor when it arrives.
  SlidingSuffStats::Options opts;
  opts.bucket_seconds = kSecondsPerHour;
  opts.max_buckets = 24;
  SlidingSuffStats sliding(opts);
  const auto bucket_index = [&](Seconds at) { return at / opts.bucket_seconds; };

  std::mt19937 rng(99);
  const std::vector<Event> events = event_stream(600, 23);
  std::vector<ModelEntry> kept;
  std::int64_t floor = std::numeric_limits<std::int64_t>::min();
  std::uint64_t refused = 0;
  std::uint64_t span_evicted = 0;
  std::uint64_t horizon_evicted = 0;
  const auto raise_floor = [&](std::int64_t to, std::uint64_t& evicted) {
    floor = std::max(floor, to);
    const auto below = [&](const ModelEntry& e) {
      return bucket_index(e.at) < floor;
    };
    evicted += static_cast<std::uint64_t>(std::count_if(
        kept.begin(), kept.end(), below));
    std::erase_if(kept, below);
  };

  std::uniform_int_distribution<int> action(0, 19);
  std::uniform_int_distribution<int> node(0, 3);
  std::uniform_int_distribution<std::size_t> lag(0, 40);
  Seconds newest = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    // Mostly in-order arrivals, occasionally a repeat of an earlier (maybe
    // stale) event, occasionally a compaction cut at an earlier timestamp.
    Event e = events[i];
    const int roll = action(rng);
    if (roll < 4) e = events[i - std::min(i, lag(rng))];
    const ModelEntry entry{e.at, node(rng), e.value};
    const bool taken = bucket_index(e.at) >= floor;
    ASSERT_EQ(sliding.add(entry.at, entry.value, entry.node), taken)
        << "step " << i;
    if (taken) {
      kept.push_back(entry);
      if (kept.size() == 1 || e.at > newest) {
        newest = e.at;
        raise_floor(bucket_index(newest) -
                        static_cast<std::int64_t>(opts.max_buckets),
                    span_evicted);
      }
    } else {
      ++refused;
    }
    if (roll == 19) {
      const Seconds horizon = events[i - std::min(i, lag(rng))].at;
      sliding.evict_before(horizon);
      raise_floor(bucket_index(horizon), horizon_evicted);
    }
    ASSERT_LE(sliding.bucket_count(), opts.max_buckets + 1) << "step " << i;
    ASSERT_EQ(sliding.size(), kept.size()) << "after step " << i;
  }
  expect_same_bits(sliding.total_stats(),
                   model_fold(kept, opts.bucket_seconds, opts.floor_at));
  EXPECT_GT(refused, 0u);
  EXPECT_GT(span_evicted, 0u);
  EXPECT_GT(horizon_evicted, 0u);
}

TEST(SlidingSuffStats, BucketFoldDoesNotDependOnArrivalOrder) {
  // Dense entries, many per bucket and some tied on (at, node), in three
  // arrival orders: every bucket folds them in (at, node, value) order.
  std::mt19937 rng(7);
  std::uniform_int_distribution<Seconds> at(0, 6 * kSecondsPerHour);
  std::uniform_int_distribution<int> node(0, 2);
  std::lognormal_distribution<double> value(2.0, 1.0);
  std::vector<ModelEntry> entries;
  for (int i = 0; i < 400; ++i) {
    entries.push_back({at(rng) / 60 * 60, node(rng), value(rng)});
  }
  const SuffStats want = model_fold(entries, kSecondsPerHour, 1e-9);
  for (int order = 0; order < 3; ++order) {
    SCOPED_TRACE("order " + std::to_string(order));
    std::shuffle(entries.begin(), entries.end(), rng);
    SlidingSuffStats sliding;
    for (const ModelEntry& e : entries) sliding.add(e.at, e.value, e.node);
    expect_same_bits(sliding.total_stats(), want);
    expect_same_bits(sliding.window_stats(sliding.latest_at(),
                                          sliding.options().span()),
                     want);
  }
}

TEST(SlidingSuffStats, MaxBucketsAtTheSizeLimitSaturatesTheSpan) {
  constexpr Seconds kLowest = std::numeric_limits<Seconds>::min();
  constexpr Seconds kHighest = std::numeric_limits<Seconds>::max();
  SlidingSuffStats::Options opts;
  opts.max_buckets = std::numeric_limits<std::size_t>::max();
  EXPECT_EQ(opts.span(), kHighest - kHighest % opts.bucket_seconds);
  opts.bucket_seconds = 1;
  ASSERT_EQ(opts.span(), kHighest);

  // The span reaches from the newest entry down past the lowest Seconds,
  // so nothing is evicted until an entry lands more than kHighest above
  // the oldest.
  SlidingSuffStats sliding(opts);
  EXPECT_TRUE(sliding.add(kLowest, 1.0));
  EXPECT_TRUE(sliding.add(-1, 2.0));
  EXPECT_EQ(sliding.bucket_count(), 2u);
  EXPECT_EQ(sliding.window_stats(-1, kHighest).n, 2u);
  EXPECT_TRUE(sliding.add(kHighest, 3.0));
  EXPECT_EQ(sliding.bucket_count(), 1u);
  EXPECT_FALSE(sliding.add(-1, 4.0));
  EXPECT_TRUE(sliding.add(0, 5.0));
  EXPECT_EQ(sliding.window_stats(kHighest, kHighest).n, 2u);

  // Hourly buckets: the span stops at the largest whole number of hours.
  SlidingSuffStats hourly({.max_buckets = opts.max_buckets});
  EXPECT_TRUE(hourly.add(kLowest, 1.0));
  EXPECT_TRUE(hourly.add(kHighest, 1.0));
  EXPECT_EQ(hourly.size(), 1u);
  EXPECT_EQ(hourly.window_stats(kHighest, kHighest).n, 1u);
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
