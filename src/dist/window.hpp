// Sliding-window sufficient statistics for live analytics.
//
// The streaming daemon needs windowed moments ("repair minutes over the
// last 24 hours for system 20, hardware failures") without rescanning the
// trace, and a sliding window cannot be maintained by a single SuffStats
// accumulator because sums cannot be *un*-added. SlidingSuffStats buckets
// observations by a fixed time quantum instead, so a window query merges
// the covered buckets (oldest first) and eviction drops whole buckets off
// the back. Window edges therefore have bucket resolution — a query covers
// every bucket whose quantum intersects [now - window, now], which is
// exactly reproducible by a brute-force rescan bucketing the same way (the
// calibration oracle does).
//
// Each bucket keeps its (start, node, value) entries sorted by that triple,
// and its SuffStats is the fold of those entries in that order. So a
// bucket's bits, and every window merged from them, depend only on which
// entries arrived, not on their arrival order.
//
// A window spans max_buckets × bucket_seconds behind its newest entry:
// buckets that fall below that span are dropped, and add() refuses an entry
// below it or below evict_before's horizon. Memory is therefore bounded by
// the span, not by history. Buckets are sparse (quiet quanta occupy
// nothing). Not thread-safe — the daemon owns one per (system, cause)
// behind its own lock.
#pragma once

#include <algorithm>
#include <compare>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "common/time.hpp"
#include "dist/suffstats.hpp"

namespace hpcfail::dist {

class SlidingSuffStats {
 public:
  struct Options {
    Seconds bucket_seconds = kSecondsPerHour;
    std::size_t max_buckets = 24 * 14;  ///< two weeks of hourly buckets
    double floor_at = 1e-9;

    /// max_buckets × bucket_seconds, saturated at the largest multiple
    /// of bucket_seconds that Seconds holds.
    Seconds span() const noexcept {
      const Seconds most = std::numeric_limits<Seconds>::max() / bucket_seconds;
      return std::min<std::uint64_t>(max_buckets, most) * bucket_seconds;
    }
  };

  SlidingSuffStats() : SlidingSuffStats(Options{}) {}
  explicit SlidingSuffStats(Options options);

  /// Takes `value`, observed on `node` at time `at`, into its bucket and
  /// returns true; returns false and keeps nothing when `at`'s bucket lies
  /// more than max_buckets behind the newest entry's, or below the
  /// evict_before horizon. Amortized O(1) for an entry that sorts last in
  /// its bucket; one refold of the bucket otherwise. Same value-domain
  /// checks as SuffStats::add.
  bool add(Seconds at, double value, int node = 0);

  /// Merged statistics over every bucket intersecting [now - window,
  /// now]; oldest-first merge order, so repeated queries are
  /// deterministic. `window <= 0` yields the empty statistics.
  SuffStats window_stats(Seconds now, Seconds window) const;

  /// Merged statistics over every retained bucket.
  SuffStats total_stats() const;

  /// Evicts every bucket whose quantum lies entirely before `horizon`
  /// (bucket index < horizon's index). The horizon is remembered as a
  /// floor: add() refuses a late arrival landing on an evicted bucket's
  /// index — even when no buckets remain — so it is never resurrected.
  /// This is the retention hook: windows stop covering history the
  /// caller no longer retains.
  void evict_before(Seconds horizon);

  /// Retained entries across all buckets.
  std::uint64_t size() const noexcept { return size_; }

  std::size_t bucket_count() const noexcept { return buckets_.size(); }

  /// Timestamp of the newest entry taken (0 before the first add) — the
  /// daemon's window-staleness probe.
  Seconds latest_at() const noexcept { return latest_at_; }

  const Options& options() const noexcept { return options_; }

 private:
  struct Entry {
    Seconds at;
    int node;
    double value;
    auto operator<=>(const Entry&) const = default;  ///< by (at, node, value)
  };
  struct Bucket {
    std::int64_t index = 0;      ///< floor(at / bucket_seconds)
    std::vector<Entry> entries;  ///< ascending (at, node, value)
    SuffStats stats;             ///< the fold of entries, in their order
  };

  std::int64_t bucket_index(Seconds at) const noexcept;
  /// bucket_index(at - span), or the lowest index when that underflows.
  std::int64_t index_behind(Seconds at, Seconds span) const noexcept;
  /// Raises the floor to `index` and drops every bucket below it.
  void raise_floor(std::int64_t index);

  Options options_;
  std::deque<Bucket> buckets_;  ///< ascending index, sparse
  /// Smallest bucket index add() still takes: the span behind the newest
  /// entry, or the evict_before horizon, whichever is higher.
  std::int64_t floor_index_ = std::numeric_limits<std::int64_t>::min();
  std::uint64_t size_ = 0;
  Seconds latest_at_ = 0;
};

}  // namespace hpcfail::dist
