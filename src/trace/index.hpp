// Zero-copy query surface over a FailureDataset.
//
// Every analyzer reproducing Figs 1-7 funnels through the same handful of
// extractions — "one system's records", "a time window", "one node's
// interarrival times" — and the original FailureDataset answered each by
// re-scanning and deep-copying the whole trace. At the 23k-record LANL
// scale that was invisible; at the millions-of-records traces the roadmap
// targets it dominates every pipeline stage (the per-node Fig 6 sweep was
// O(records x nodes)).
//
// DatasetIndex is built once per dataset (lazily, see
// FailureDataset::view()) and holds three structures:
//
//   * the base view: the dataset's columns, globally start-sorted, so any
//     time window is a contiguous range found by binary search over the
//     start column;
//   * a per-system contiguous partition: the columns re-grouped by system
//     (start-sorted within each system), so one system's records are one
//     column range;
//   * per-(system, node) posting lists: each node's failure start times,
//     ascending, so per-node interarrival extraction never rescans.
//
// DatasetView is a cheap value type (a ColumnsView plus scope metadata)
// backed by the index. for_system()/between() return narrower views in
// O(log n) without copying a record; the grouped extractor
// node_interarrival_groups() produces *all* nodes' interarrival vectors in
// one sweep over the posting lists. Views borrow the dataset: they are
// invalidated when the dataset is destroyed, moved, or assigned.
//
// Index construction parallelizes over systems on the shared thread pool
// and is deterministic at any thread count. Build time is recorded into
// the obs histogram "trace.index.seconds"; every view-producing query
// counts into "dataset.view_hits".
//
// Memory cost: the per-system partition stores a columnar copy of every
// record and the posting lists store one Seconds per record, so an indexed
// dataset occupies roughly twice the raw trace. The duplication is what
// makes per-system views contiguous (a column range cannot express a
// permutation); callers that never query can avoid it entirely by not
// calling view()/index(), since the index is built lazily.
#pragma once

#include <atomic>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "trace/columns.hpp"
#include "trace/dataset.hpp"
#include "trace/record.hpp"

namespace hpcfail::obs {
class Counter;
}  // namespace hpcfail::obs

namespace hpcfail::trace {

class DatasetIndex;

/// One node's failure start times, as read from its posting list.
struct NodeStarts {
  int node_id = 0;
  std::span<const Seconds> starts;  ///< ascending; borrows the index
};

/// One node's interarrival sample, as produced by the grouped extractor.
struct NodeInterarrivalGroup {
  int node_id = 0;
  std::vector<double> gaps_seconds;  ///< consecutive-failure gaps, ordered
};

/// A non-owning, start-sorted slice of a dataset: all records, one
/// system, a time window, or both. Copying a view copies a few pointers.
class DatasetView {
 public:
  /// The empty view (no index, no records).
  DatasetView() = default;

  /// The records in this view, start-ascending, as a columnar view.
  /// Iteration yields FailureRecord values; starts()/ends()/causes()...
  /// expose the raw column spans.
  ColumnsView records() const noexcept { return view_; }
  std::size_t size() const noexcept { return view_.size(); }
  bool empty() const noexcept { return view_.empty(); }

  /// The system this view is scoped to, if any.
  std::optional<int> system() const noexcept { return system_; }

  /// Earliest start / latest end in the view. Throw on an empty view.
  Seconds first_start() const;
  Seconds last_end() const;

  /// This view narrowed to one system, in O(log n). On a view already
  /// scoped to a different system the result is empty.
  DatasetView for_system(int system_id) const;

  /// This view narrowed to records with start in [from, to), in
  /// O(log n). An inverted window (from >= to) yields an empty view;
  /// callers that consider that an error validate before narrowing.
  DatasetView between(Seconds from, Seconds to) const;

  /// Gaps between consecutive failures of one node, in seconds (Section
  /// 5.3 view (i)). Requires a system-scoped view; O(log n + gaps) via
  /// the node's posting list.
  std::vector<double> node_interarrivals(int node_id) const;

  /// Gaps between consecutive failures anywhere in the view's system, in
  /// seconds (Section 5.3 view (ii)). Requires a system-scoped view.
  /// Simultaneous failures yield exact zeros.
  std::vector<double> system_interarrivals() const;

  /// Every node's failure start times within the view's window, ascending
  /// node id, in one sweep over the posting lists; nodes without a
  /// failure in the window are omitted. The spans borrow the index.
  /// Requires a system-scoped view.
  std::vector<NodeStarts> node_starts() const;

  /// The single-pass grouped form of node_interarrivals(): every node's
  /// interarrival vector (nodes with fewer than `min_gaps` gaps omitted),
  /// ascending node id, in one sweep over the posting lists. Replaces the
  /// O(records x nodes) per-node rescan. Requires a system-scoped view.
  std::vector<NodeInterarrivalGroup> node_interarrival_groups(
      std::size_t min_gaps = 0) const;

  /// Failure count per node of the view's system (zero-failure nodes are
  /// absent). Requires a system-scoped view; O(nodes log n).
  std::map<int, std::size_t> failures_per_node() const;

  /// Repair times (end - start) in minutes over the view's records — one
  /// fused pass over the start/end columns.
  std::vector<double> repair_times_minutes() const;

  /// Sum of downtime over the view's records, in minutes.
  double total_downtime_minutes() const noexcept;

  /// Deep copy of the view into a standalone dataset (the bridge to the
  /// pre-view copying API; records are already sorted and validated).
  FailureDataset materialize() const;

 private:
  friend class DatasetIndex;

  const DatasetIndex* index_ = nullptr;
  std::optional<int> system_;
  Seconds from_ = 0;  ///< window, meaningful only when windowed_
  Seconds to_ = 0;
  bool windowed_ = false;
  ColumnsView view_;
};

/// The immutable acceleration structure behind DatasetView. Built from
/// (start, system, node)-sorted columns — exactly the order
/// FailureDataset maintains — normally through FailureDataset::view()
/// rather than directly.
class DatasetIndex {
 public:
  /// Builds the partition and posting lists; parallelizes over systems on
  /// the shared pool. The index holds views into `columns`, so the caller
  /// owns keeping that storage valid for the index's lifetime.
  /// FailureDataset provides this not by pinning its columns in place but
  /// by serializing moves against index()/view() on index_mutex_ and
  /// dropping the moved-from dataset's index (the destination rebuilds
  /// lazily on next access) — so moving a FailureDataset with a built
  /// index is safe; it just costs one rebuild. Direct constructors of
  /// DatasetIndex must provide the same guarantee themselves.
  explicit DatasetIndex(const ColumnStore& columns);

  /// The root view: every record.
  DatasetView all() const noexcept;

  /// Distinct system ids, ascending. O(systems).
  std::vector<int> system_ids() const;

  std::size_t record_count() const noexcept { return base_.size(); }

 private:
  friend class DatasetView;

  /// Posting list of one (system, node): starts_[begin, end) are the
  /// node's failure start times, ascending.
  struct NodeSlice {
    int node_id = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  /// One system's contiguous slice of the partition, plus its node range.
  struct SystemSlice {
    int system_id = 0;
    std::size_t begin = 0;        ///< into by_system_
    std::size_t end = 0;
    std::size_t nodes_begin = 0;  ///< into node_slices_
    std::size_t nodes_end = 0;
  };

  const SystemSlice* find_system(int system_id) const noexcept;
  void count_view_hit() const noexcept;

  ColumnsView base_;                    ///< globally start-sorted
  ColumnStore by_system_;               ///< partitioned by system
  std::vector<SystemSlice> systems_;    ///< ascending system id
  std::vector<NodeSlice> node_slices_;  ///< grouped by system
  std::vector<Seconds> node_starts_;    ///< the posting-list storage
  /// Resolved on first counted hit (not at build time, so enabling obs
  /// after a lazy index build still records hits); atomic because
  /// concurrent const queries may race the resolution.
  mutable std::atomic<obs::Counter*> view_hits_{nullptr};
};

}  // namespace hpcfail::trace
