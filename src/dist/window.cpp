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

void SlidingSuffStats::add(Seconds at, double value) {
  const std::int64_t idx = bucket_index(at);
  if (idx < floor_index_ ||
      (!buckets_.empty() && idx < buckets_.front().index)) {
    ++dropped_;  // older than everything retained (or already evicted)
    return;
  }
  if (at > latest_at_ || size_ == 0) latest_at_ = at;

  if (buckets_.empty() || idx > buckets_.back().index) {
    Bucket b;
    b.index = idx;
    b.stats.floor_at = options_.floor_at;
    buckets_.push_back(std::move(b));
    buckets_.back().stats.add(value);
  } else {
    // In a retained bucket: usually the newest, occasionally an
    // out-of-order arrival further back.
    const auto it = std::lower_bound(
        buckets_.begin(), buckets_.end(), idx,
        [](const Bucket& b, std::int64_t i) { return b.index < i; });
    if (it != buckets_.end() && it->index == idx) {
      it->stats.add(value);
    } else {
      Bucket b;
      b.index = idx;
      b.stats.floor_at = options_.floor_at;
      b.stats.add(value);
      buckets_.insert(it, std::move(b));
    }
  }
  ++size_;

  while (buckets_.size() > options_.max_buckets) {
    dropped_ += buckets_.front().stats.n;
    size_ -= buckets_.front().stats.n;
    floor_index_ = buckets_.front().index + 1;
    buckets_.pop_front();
  }
}

void SlidingSuffStats::evict_before(Seconds horizon) {
  const std::int64_t idx = bucket_index(horizon);
  if (idx > floor_index_) floor_index_ = idx;
  while (!buckets_.empty() && buckets_.front().index < idx) {
    dropped_ += buckets_.front().stats.n;
    size_ -= buckets_.front().stats.n;
    buckets_.pop_front();
  }
}

SuffStats SlidingSuffStats::window_stats(Seconds now, Seconds window) const {
  SuffStats merged;
  merged.floor_at = options_.floor_at;
  if (window <= 0) return merged;
  // A window reaching past the lowest Seconds covers everything.
  constexpr Seconds kLowest = std::numeric_limits<Seconds>::min();
  const std::int64_t min_idx =
      bucket_index(now < kLowest + window ? kLowest : now - window);
  const std::int64_t max_idx = bucket_index(now);
  const auto first = std::lower_bound(
      buckets_.begin(), buckets_.end(), min_idx,
      [](const Bucket& b, std::int64_t i) { return b.index < i; });
  for (auto it = first; it != buckets_.end() && it->index <= max_idx; ++it) {
    merged.merge(it->stats);
  }
  return merged;
}

SuffStats SlidingSuffStats::total_stats() const {
  SuffStats merged;
  merged.floor_at = options_.floor_at;
  for (const Bucket& b : buckets_) merged.merge(b.stats);
  return merged;
}

}  // namespace hpcfail::dist
