#include "trace/ingest.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "obs/timer.hpp"
#include "trace/merge.hpp"

namespace hpcfail::trace {

LiveDataset::LiveDataset() : LiveDataset(Options{}) {}

LiveDataset::LiveDataset(FailureDataset seed)
    : LiveDataset(std::move(seed), Options{}) {}

LiveDataset::LiveDataset(Options options) : options_(options) {
  HPCFAIL_EXPECTS(options_.min_rebuild_tail > 0,
                  "min_rebuild_tail must be positive");
  HPCFAIL_EXPECTS(options_.rebuild_fraction >= 0.0,
                  "rebuild_fraction must be non-negative");
  HPCFAIL_EXPECTS(options_.shards > 0, "shards must be positive");
  HPCFAIL_EXPECTS(options_.retain_seconds >= 0,
                  "retain_seconds must be non-negative");
  shards_.reserve(options_.shards);
  for (std::size_t s = 0; s < options_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  sealed_ = std::make_shared<const FailureDataset>();
}

LiveDataset::LiveDataset(FailureDataset seed, Options options)
    : LiveDataset(options) {
  sealed_count_.store(seed.size(), std::memory_order_release);
  publish(std::make_shared<const FailureDataset>(std::move(seed)));
}

std::size_t LiveDataset::seal_threshold() const noexcept {
  const auto scaled = static_cast<std::size_t>(
      options_.rebuild_fraction * static_cast<double>(sealed_size()));
  return std::max(options_.min_rebuild_tail, scaled);
}

void LiveDataset::append(std::size_t shard, const FailureRecord& r) {
  HPCFAIL_EXPECTS(shard < shards_.size(), "shard out of range");
  if (!r.is_consistent()) {
    throw InvalidArgument(
        "inconsistent failure record appended (end < start, bad ids, or "
        "cause/detail mismatch)");
  }
  Shard& s = *shards_[shard];
  {
    std::lock_guard<std::mutex> lock(s.mutex);
    s.tail.push_back(r);
  }
  const std::size_t tails =
      tail_count_.fetch_add(1, std::memory_order_acq_rel) + 1;

  if (obs::enabled()) {
    // Lazy handle, same scheme as DatasetIndex::count_view_hit().
    obs::Counter* counter = appends_counter_.load(std::memory_order_acquire);
    if (counter == nullptr) {
      counter = &obs::registry().counter("ingest.appends");
      appends_counter_.store(counter, std::memory_order_release);
    }
    counter->add(1);
  }

  if (tails >= seal_threshold()) maybe_seal();
}

void LiveDataset::maybe_seal() {
  // A seal already in flight will pick up late tails on the next
  // trigger; skipping keeps the append path wait-free under rebuilds.
  if (!seal_mutex_.try_lock()) return;
  if (tail_count_.load(std::memory_order_acquire) >= seal_threshold()) {
    do_seal();
  }
  seal_mutex_.unlock();
}

void LiveDataset::seal() {
  std::lock_guard<std::mutex> lock(seal_mutex_);
  do_seal();
}

void LiveDataset::do_seal() {
  // Swap every shard's tail out under its mutex; appends proceed into
  // fresh tails while this thread merges.
  std::vector<ColumnStore> tails(shards_.size());
  std::size_t moved = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    std::lock_guard<std::mutex> lock(shards_[s]->mutex);
    if (!shards_[s]->tail.empty()) {
      tails[s] = std::exchange(shards_[s]->tail, ColumnStore{});
      moved += tails[s].size();
    }
  }
  if (moved == 0) return;
  tail_count_.fetch_sub(moved, std::memory_order_acq_rel);
  obs::ScopedTimer timer("trace.seal");

  // Stable radix merge of [sealed, tail 0, tail 1, ...]: equal keys
  // stay in part order (sealed first), which equals one stable sort of
  // the concatenation — so repeated seals commute with a single batch
  // build on the same data, at any shard count.
  const std::shared_ptr<const FailureDataset> sealed_ptr = snapshot();
  std::vector<const ColumnStore*> parts;
  parts.reserve(1 + tails.size());
  parts.push_back(&sealed_ptr->columns());
  for (const ColumnStore& t : tails) {
    if (!t.empty()) parts.push_back(&t);
  }
  ColumnStore merged = merge_sorted(parts);

  const std::size_t cut = retention_cut(merged);
  if (cut > 0) {
    compact_prefix(merged, cut);
    merged.drop_front(cut);
  }

  // Revalidates in one fused pass and adopts (the merge output is
  // sorted, so from_columns does not sort again).
  auto next = std::make_shared<const FailureDataset>(
      FailureDataset::from_columns(std::move(merged)));

  sealed_count_.store(next->size(), std::memory_order_release);
  publish(std::move(next));
  epoch_.fetch_add(1, std::memory_order_acq_rel);

  if (obs::enabled()) {
    obs::registry().gauge("ingest.epoch")
        .set(static_cast<double>(epoch_.load(std::memory_order_acquire)));
    obs::registry().gauge("ingest.sealed_records")
        .set(static_cast<double>(sealed_size()));
  }
}

std::size_t LiveDataset::retention_cut(const ColumnStore& merged) const {
  if (merged.size() == 0) return 0;
  std::size_t cut = 0;
  if (options_.retain_seconds > 0) {
    // A horizon before the lowest Seconds saturates there: it cuts nothing.
    constexpr Seconds kLowest = std::numeric_limits<Seconds>::min();
    const Seconds last = merged.start.back();
    const Seconds horizon = last < kLowest + options_.retain_seconds
                                ? kLowest
                                : last - options_.retain_seconds;
    cut = static_cast<std::size_t>(
        std::lower_bound(merged.start.begin(), merged.start.end(), horizon) -
        merged.start.begin());
  }
  if (options_.max_sealed_events > 0 &&
      merged.size() > options_.max_sealed_events) {
    // Round the count cut down to the previous start boundary so the
    // dropped set is exactly {rows : start < boundary} — value-based,
    // so compaction commutes with re-partitioning and late arrivals.
    const std::size_t k = merged.size() - options_.max_sealed_events;
    const std::size_t cut_count = static_cast<std::size_t>(
        std::lower_bound(merged.start.begin(), merged.start.end(),
                         merged.start[k]) -
        merged.start.begin());
    cut = std::max(cut, cut_count);
  }
  return cut;
}

void LiveDataset::compact_prefix(const ColumnStore& merged, std::size_t cut) {
  {
    std::lock_guard<std::mutex> lock(compaction_mutex_);
    for (std::size_t i = 0; i < cut; ++i) {
      dist::SuffStats& cell =
          compacted_[{merged.system_id[i], merged.cause[i]}];
      cell.add(static_cast<double>(merged.end[i] - merged.start[i]) / 60.0);
    }
  }
  compacted_events_.fetch_add(cut, std::memory_order_acq_rel);
  // The first retained start: every compacted row started before it.
  retention_horizon_.store(merged.start[cut], std::memory_order_release);

  if (obs::enabled()) {
    obs::Counter* counter =
        compactions_counter_.load(std::memory_order_acquire);
    if (counter == nullptr) {
      counter = &obs::registry().counter("ingest.compacted_events");
      compactions_counter_.store(counter, std::memory_order_release);
    }
    counter->add(cut);
  }
}

std::vector<CompactionCell> LiveDataset::compaction_cells() const {
  std::vector<CompactionCell> cells;
  std::lock_guard<std::mutex> lock(compaction_mutex_);
  cells.reserve(compacted_.size());
  for (const auto& [key, stats] : compacted_) {
    cells.push_back({key.first, key.second, stats});
  }
  return cells;
}

std::shared_ptr<const FailureDataset> LiveDataset::snapshot() const {
  std::lock_guard<std::mutex> lock(sealed_mutex_);
  return sealed_;
}

void LiveDataset::publish(std::shared_ptr<const FailureDataset> next) {
  std::lock_guard<std::mutex> lock(sealed_mutex_);
  sealed_ = std::move(next);
}

}  // namespace hpcfail::trace
