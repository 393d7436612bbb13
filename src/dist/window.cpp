#include "dist/window.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace hpcfail::dist {

SlidingSuffStats::SlidingSuffStats(Options options) : options_(options) {
  HPCFAIL_EXPECTS(options_.bucket_seconds > 0,
                  "bucket_seconds must be positive");
  HPCFAIL_EXPECTS(options_.max_buckets > 0, "max_buckets must be positive");
  HPCFAIL_EXPECTS(options_.floor_at > 0.0, "floor_at must be positive");
}

std::int64_t SlidingSuffStats::bucket_index(Seconds at) const noexcept {
  // Floor division (timestamps before the epoch are valid Seconds).
  std::int64_t q = at / options_.bucket_seconds;
  if (at % options_.bucket_seconds != 0 && at < 0) --q;
  return q;
}

std::int64_t SlidingSuffStats::index_behind(Seconds at,
                                            Seconds span) const noexcept {
  // A span reaching past the lowest Seconds stops there.
  constexpr Seconds kLowest = std::numeric_limits<Seconds>::min();
  return bucket_index(at < kLowest + span ? kLowest : at - span);
}

void SlidingSuffStats::raise_floor(std::int64_t index) {
  floor_index_ = std::max(floor_index_, index);
  while (!buckets_.empty() && buckets_.front().index < floor_index_) {
    size_ -= buckets_.front().entries.size();
    buckets_.pop_front();
  }
}

bool SlidingSuffStats::add(Seconds at, double value, int node) {
  const std::int64_t idx = bucket_index(at);
  if (idx < floor_index_) return false;
  HPCFAIL_EXPECTS(value >= 0.0,
                  "sufficient statistics require non-negative data");
  auto it = std::lower_bound(
      buckets_.begin(), buckets_.end(), idx,
      [](const Bucket& b, std::int64_t i) { return b.index < i; });
  if (it == buckets_.end() || it->index != idx) {
    it = buckets_.insert(it, Bucket{idx, {}, {.floor_at = options_.floor_at}});
  }
  const Entry entry{at, node, value};
  std::vector<Entry>& entries = it->entries;
  // The bucket's stats are the fold of its entries in order: an entry that
  // sorts last extends the fold, any other refolds the bucket.
  const auto pos = std::upper_bound(entries.begin(), entries.end(), entry);
  if (pos == entries.end()) {
    entries.push_back(entry);
    it->stats.add(value);
  } else {
    entries.insert(pos, entry);
    it->stats = SuffStats{.floor_at = options_.floor_at};
    for (const Entry& e : entries) it->stats.add(e.value);
  }
  if (size_++ == 0 || at > latest_at_) {
    latest_at_ = at;
    raise_floor(index_behind(at, options_.span()));
  }
  return true;
}

void SlidingSuffStats::evict_before(Seconds horizon) {
  raise_floor(bucket_index(horizon));
}

SuffStats SlidingSuffStats::window_stats(Seconds now, Seconds window) const {
  SuffStats merged{.floor_at = options_.floor_at};
  if (window <= 0) return merged;
  const std::int64_t max_idx = bucket_index(now);
  const auto first = std::lower_bound(
      buckets_.begin(), buckets_.end(), index_behind(now, window),
      [](const Bucket& b, std::int64_t i) { return b.index < i; });
  for (auto it = first; it != buckets_.end() && it->index <= max_idx; ++it) {
    merged.merge(it->stats);
  }
  return merged;
}

SuffStats SlidingSuffStats::total_stats() const {
  SuffStats merged{.floor_at = options_.floor_at};
  for (const Bucket& b : buckets_) merged.merge(b.stats);
  return merged;
}

}  // namespace hpcfail::dist
