// FailureDataset: an immutable, start-time-sorted collection of failure
// records with the extraction views every analysis needs — per-node and
// system-wide interarrival times (Section 5.3's two views of the failure
// process), repair-time samples, and per-node counts.
//
// Storage is columnar (trace/columns.hpp): the dataset owns one
// ColumnStore, records() exposes it as a ColumnsView, and the numeric
// extractors (repair times, downtime totals) run as fused passes over the
// start/end columns instead of per-record helper calls. Row-oriented
// callers still iterate FailureRecord values; AoS vectors are
// reconstituted only at the edges (CSV I/O, golden snapshots).
//
// Querying goes through the zero-copy view layer (trace/index.hpp):
// view() exposes column-backed slices and indexed extractors over a
// DatasetIndex that is built lazily, once per dataset. The original
// copying query methods are gone; callers narrow a view() and
// materialize() only when they need a standalone dataset.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "trace/columns.hpp"
#include "trace/record.hpp"

namespace hpcfail::trace {

class DatasetIndex;
class DatasetView;

class FailureDataset {
 public:
  /// from_columns(ColumnStore::from_records(records)): the same
  /// validation and the same stable (start, system, node) order, so
  /// records with equal keys keep their input order and
  /// read_csv(write_csv(ds)) reproduces ds row for row.
  explicit FailureDataset(std::vector<FailureRecord> records);

  /// Takes ownership of already-columnar storage — the zero-copy path the
  /// trace generator feeds. Validation is one fused pass over the columns:
  /// InvalidArgument if any row has end < start, bad ids or a cause/detail
  /// mismatch, reporting the offending index. Columns that arrive
  /// (start, system, node)-sorted are adopted as-is; anything else is
  /// stably sorted by the radix merge (trace/merge.hpp) over one part.
  static FailureDataset from_columns(ColumnStore columns);

  /// The empty dataset.
  FailureDataset();
  ~FailureDataset();

  /// Copies columns only; the copy builds its own index on first use.
  FailureDataset(const FailureDataset& other);
  FailureDataset& operator=(const FailureDataset& other);
  /// Moving invalidates the source's index and any views borrowed from
  /// either object. The move itself holds both index mutexes, so it
  /// serializes against concurrent index()/view() calls — but views
  /// handed out *before* the move still dangle; callers must not use
  /// them afterwards.
  FailureDataset(FailureDataset&& other) noexcept;
  FailureDataset& operator=(FailureDataset&& other) noexcept;

  /// All records as a columnar view, (start, system, node)-sorted.
  /// Iterating yields FailureRecord values; column spans are available
  /// through the view's typed accessors.
  ColumnsView records() const noexcept { return ColumnsView(columns_); }

  /// The underlying column storage.
  const ColumnStore& columns() const noexcept { return columns_; }

  std::size_t size() const noexcept { return columns_.size(); }
  bool empty() const noexcept { return columns_.empty(); }

  /// The dataset's acceleration index, built on first use (thread-safe)
  /// and reused by every subsequent query.
  const DatasetIndex& index() const;

  /// Zero-copy root view over all records; the preferred query surface.
  /// Views borrow this dataset and must not outlive it (or survive a
  /// move/assignment of it).
  DatasetView view() const;

  /// Earliest start / latest end across all records. Throws on empty.
  Seconds first_start() const;
  Seconds last_end() const;

  /// New dataset with the records satisfying `keep` (records are copied;
  /// order is preserved, so the result is already sorted).
  FailureDataset filter(
      const std::function<bool(const FailureRecord&)>& keep) const;

  /// Repair times (end - start) in minutes, the unit of Table 2/Fig 7,
  /// over all records — one fused pass over the start/end columns.
  std::vector<double> repair_times_minutes() const;

  /// Distinct system ids present, ascending: the index's list.
  std::vector<int> system_ids() const;

  /// Sum of downtime over all records, in minutes.
  double total_downtime_minutes() const noexcept;

 private:
  friend class DatasetView;  // materialize() rebuilds without revalidating

  /// Adopts columns that are already (start, system, node)-sorted and
  /// validated — the internal fast path behind filter()/materialize().
  static FailureDataset from_sorted_columns(ColumnStore columns);

  ColumnStore columns_;             // sorted by (start, system, node)
  mutable std::mutex index_mutex_;  // guards lazy index_ creation
  mutable std::unique_ptr<DatasetIndex> index_;
};

}  // namespace hpcfail::trace
