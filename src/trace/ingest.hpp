// Incremental dataset maintenance for streaming ingest (`hpcfail serve`).
//
// The batch pipeline builds one immutable FailureDataset and one
// DatasetIndex over it. A live daemon cannot afford a full O(n log n)
// re-sort per arriving event, so LiveDataset splits the data in two:
//
//   * the *sealed* prefix: an immutable FailureDataset published to
//     readers as a shared_ptr snapshot. No seal builds its index: a
//     reader that queries index()/view() builds it lazily, once per
//     snapshot (FailureDataset::index() is thread-safe);
//   * the *tails*: recent appends, kept columnar in arrival order in one
//     tail per ingest shard.
//
// The live view of unsealed events is serve::LiveAnalytics' per-(system,
// cause) windows, which keep each node's last start; per-node posting
// lists over sealed events come from a snapshot's index, on demand.
//
// When the combined tails outgrow the rebuild policy
// (max(min_rebuild_tail, rebuild_fraction x sealed size) — geometric
// growth, so the total merge work over n appends is O(n log n)
// amortized, not O(n^2)), a seal swaps every shard's tail out under its
// shard mutex and runs the shared stable radix merge (trace/merge.hpp)
// over [sealed, tail 0, tail 1, ...]. Stability keeps equal
// (start, system, node) keys in part order — sealed first, then shard
// order — which equals one stable sort of the concatenation, so the
// sealed snapshot is bit-identical to a from-scratch build at any shard
// count whenever records have unique keys (and deterministic for a
// fixed partition otherwise). The merged store is revalidated and then
// published by one pointer swap, so readers never block on a seal.
//
// Retention (Options::retain_seconds / max_sealed_events) bounds memory
// on unbounded runs: at seal time the merged prefix older than the
// horizon is folded into a per-(system, cause) dist::SuffStats
// compaction ledger (repair minutes, the grain /report serves) and
// dropped from the raw store. The cut always lands on a start-timestamp
// boundary, so the dropped set is exactly {rows : start < horizon} and
// compaction commutes with re-partitioning. Late arrivals older than
// the horizon are accepted into a tail, then compacted at the next seal
// — they never resurrect dropped raw rows.
//
// Threading contract: append(shard, r) is single-writer *per shard*;
// distinct shards may ingest concurrently. seal() is safe from any
// thread (serialized internally) and runs concurrently with appends — it
// holds each shard mutex only to swap the tail out. snapshot()/epoch()/
// sealed_size()/tail_size()/size()/compacted_events()/
// retention_horizon()/compaction_cells() are safe from any thread.
// Snapshots are immutable and remain valid after further appends and
// seals.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "dist/suffstats.hpp"
#include "trace/columns.hpp"
#include "trace/dataset.hpp"

namespace hpcfail::obs {
class Counter;
}  // namespace hpcfail::obs

namespace hpcfail::trace {

/// One compaction-ledger cell: the sufficient statistics of the repair
/// minutes of every raw event of one (system, cause) dropped past the
/// retention horizon.
struct CompactionCell {
  int system_id = 0;
  RootCause cause = RootCause::unknown;
  dist::SuffStats repair_minutes;
};

class LiveDataset {
 public:
  struct Options {
    /// Epoch rebuild policy: a seal is triggered when the combined
    /// tails reach max(min_rebuild_tail, rebuild_fraction * sealed).
    std::size_t min_rebuild_tail = 8192;
    double rebuild_fraction = 0.5;
    /// Ingest partitions. Each shard has its own tail and accepts
    /// appends concurrently with the other shards.
    std::size_t shards = 1;
    /// Raw events whose start is more than retain_seconds behind the
    /// latest sealed start are compacted at seal time (0 = keep all).
    Seconds retain_seconds = 0;
    /// Sealed store is trimmed to at most this many raw events at seal
    /// time, rounded down to a start-timestamp boundary (0 = no limit).
    std::size_t max_sealed_events = 0;
  };

  LiveDataset();
  explicit LiveDataset(Options options);

  /// Seeds the sealed prefix from an existing dataset.
  LiveDataset(FailureDataset seed, Options options);
  explicit LiveDataset(FailureDataset seed);

  /// Appends one record to shard 0; may trigger a seal per the rebuild
  /// policy. Throws InvalidArgument on an inconsistent record (same
  /// rule as FailureDataset construction).
  void append(const FailureRecord& r) { append(0, r); }

  /// Appends one record to the given shard (single writer per shard).
  void append(std::size_t shard, const FailureRecord& r);

  /// Forces an epoch rebuild now (no-op when every tail is empty).
  /// Safe from any thread; blocks while another seal is in flight.
  void seal();

  /// The current sealed snapshot (tail records are *not* included; call
  /// seal() first for an up-to-the-last-append dataset). Never null.
  std::shared_ptr<const FailureDataset> snapshot() const;

  std::size_t shards() const noexcept { return shards_.size(); }

  /// Number of seals performed (0 = nothing sealed yet).
  std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  std::size_t sealed_size() const noexcept {
    return sealed_count_.load(std::memory_order_acquire);
  }
  /// Records appended but not yet sealed — the epoch lag.
  std::size_t tail_size() const noexcept {
    return tail_count_.load(std::memory_order_acquire);
  }
  std::size_t size() const noexcept { return sealed_size() + tail_size(); }

  /// Raw events compacted into the retention ledger and dropped from
  /// the sealed store. sealed + tails + compacted == appended (plus the
  /// seed), always.
  std::uint64_t compacted_events() const noexcept {
    return compacted_events_.load(std::memory_order_acquire);
  }

  /// First retained start timestamp: every compacted event had
  /// start < retention_horizon(). Meaningful only when
  /// compacted_events() > 0.
  Seconds retention_horizon() const noexcept {
    return retention_horizon_.load(std::memory_order_acquire);
  }

  /// The compaction ledger, one cell per (system, cause) compacted,
  /// ordered by (system, cause). Each cell's SuffStats::add sequence
  /// follows the merged (start, system, node) order of the rows each
  /// seal drops, seal after seal, so the ledger is deterministic for a
  /// given record stream.
  std::vector<CompactionCell> compaction_cells() const;

 private:
  /// Per-shard ingest state. The mutex guards the tail; the hot append
  /// path takes it uncontended (a seal contends only to swap the tail
  /// out).
  struct Shard {
    std::mutex mutex;
    ColumnStore tail;
  };

  void publish(std::shared_ptr<const FailureDataset> next);
  std::size_t seal_threshold() const noexcept;
  void maybe_seal();
  void do_seal();  ///< requires seal_mutex_ held
  /// First retained row of the merged store under the retention policy
  /// (always at a start-timestamp boundary; 0 = keep everything).
  std::size_t retention_cut(const ColumnStore& merged) const;
  /// Folds rows [0, cut) into the ledger and advances the horizon.
  void compact_prefix(const ColumnStore& merged, std::size_t cut);

  Options options_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::mutex seal_mutex_;  ///< serializes seals; never held on append

  mutable std::mutex sealed_mutex_;  ///< guards sealed_ pointer swap only
  std::shared_ptr<const FailureDataset> sealed_;

  mutable std::mutex compaction_mutex_;  ///< guards compacted_ ledger
  std::map<std::pair<int, RootCause>, dist::SuffStats> compacted_;

  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::size_t> sealed_count_{0};
  std::atomic<std::size_t> tail_count_{0};
  std::atomic<std::uint64_t> compacted_events_{0};
  std::atomic<Seconds> retention_horizon_{
      std::numeric_limits<Seconds>::min()};
  /// Lazy obs handles (resolved on first use so enabling obs after
  /// construction still counts); atomic mirrors
  /// DatasetIndex::view_hits_.
  mutable std::atomic<obs::Counter*> appends_counter_{nullptr};
  mutable std::atomic<obs::Counter*> compactions_counter_{nullptr};
};

}  // namespace hpcfail::trace
