// Sliding-window sufficient statistics for live analytics.
//
// The streaming daemon needs windowed moments ("repair minutes over the
// last 24 hours for system 20, hardware failures") without rescanning the
// trace, and a sliding window cannot be maintained by a single SuffStats
// accumulator because sums cannot be *un*-added. SlidingSuffStats buckets
// observations by a fixed time quantum instead: each bucket holds one
// SuffStats over the values whose timestamps fall in it, so a window
// query merges the covered buckets (oldest first) and eviction drops
// whole buckets off the back. Window edges therefore have bucket
// resolution — a query covers every bucket whose quantum intersects
// [now - window, now], which is exactly reproducible by a brute-force
// rescan bucketing the same way (the calibration oracle does).
//
// Buckets are sparse (quiet quanta occupy nothing) and bounded by
// max_buckets; values older than the retained range, and buckets evicted
// by the bound, are counted into dropped(). Not thread-safe — the daemon
// owns one per (system, node, cause) cell behind its own lock.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>

#include "common/time.hpp"
#include "dist/suffstats.hpp"

namespace hpcfail::dist {

class SlidingSuffStats {
 public:
  struct Options {
    Seconds bucket_seconds = kSecondsPerHour;
    std::size_t max_buckets = 24 * 14;  ///< two weeks of hourly buckets
    double floor_at = 1e-9;
  };

  SlidingSuffStats() : SlidingSuffStats(Options{}) {}
  explicit SlidingSuffStats(Options options);

  /// Records `value` observed at time `at`. Amortized O(1) for
  /// monotonically arriving timestamps; out-of-order arrivals landing in
  /// a retained bucket are folded there, older ones are dropped (and
  /// counted). Same value-domain checks as SuffStats::add.
  void add(Seconds at, double value);

  /// Merged statistics over every bucket intersecting [now - window,
  /// now]; oldest-first merge order, so repeated queries are
  /// deterministic. `window <= 0` yields the empty statistics.
  SuffStats window_stats(Seconds now, Seconds window) const;

  /// Merged statistics over every retained bucket.
  SuffStats total_stats() const;

  /// Evicts every bucket whose quantum lies entirely before `horizon`
  /// (bucket index < horizon's index); the evicted observations are
  /// discarded and count into dropped(). The horizon is remembered as a
  /// floor: a late arrival landing on an evicted bucket's index — even
  /// when no buckets remain — is dropped and counted, never resurrected.
  /// This is the retention hook: windows stop covering history the
  /// caller no longer retains.
  void evict_before(Seconds horizon);

  /// Observations lost to eviction or too-old arrival.
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Retained observations across all buckets.
  std::uint64_t size() const noexcept { return size_; }

  std::size_t bucket_count() const noexcept { return buckets_.size(); }

  /// Timestamp of the newest observation seen (0 before the first add) —
  /// the daemon's window-staleness probe.
  Seconds latest_at() const noexcept { return latest_at_; }

  const Options& options() const noexcept { return options_; }

 private:
  struct Bucket {
    std::int64_t index = 0;  ///< floor(at / bucket_seconds)
    SuffStats stats;
  };

  std::int64_t bucket_index(Seconds at) const noexcept;

  Options options_;
  std::deque<Bucket> buckets_;  ///< ascending index, sparse
  /// Smallest bucket index still accepted; everything below was evicted.
  std::int64_t floor_index_ = std::numeric_limits<std::int64_t>::min();
  std::uint64_t dropped_ = 0;
  std::uint64_t size_ = 0;
  Seconds latest_at_ = 0;
};

}  // namespace hpcfail::dist
