// Columnar (structure-of-arrays) failure-trace storage.
//
// Every analysis in the paper is a bulk scan over one flat failure table,
// and almost every scan touches one or two fields of each record — start
// times for interarrivals, start/end for repair, the cause byte for the
// root-cause breakdowns. The array-of-structs layout loads the full 32-byte
// record per touched field; the columnar layout below stores each field
// contiguously so a scan streams exactly the bytes it needs, categorical
// columns are one byte per record, and the numeric hot paths (interarrival
// extraction, fused repair-time conversion, windowed binary searches) run
// over dense arrays.
//
// ColumnStore owns the seven column vectors; ColumnsView is the non-owning
// window over a contiguous row range that replaces the old
// std::span<const FailureRecord> query surface. ColumnsView iterates and
// indexes as *values* of FailureRecord assembled on the fly, so existing
// row-oriented call sites (`for (const FailureRecord& r : ds.records())`,
// `records()[i]`) keep compiling unchanged; column-oriented callers use the
// typed spans (starts(), ends(), causes(), ...) directly. Reconstituting
// AoS records (to_records()/materialize()) happens only at the edges:
// golden snapshots and the differential test oracles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "trace/record.hpp"

namespace hpcfail::trace {

/// Owning SoA storage for failure records. The seven vectors always have
/// equal length; row i of the table is the i-th element of each. Members
/// are public so column scans read them directly; everything else should
/// go through FailureDataset / ColumnsView. Code that handles every
/// column walks for_each_column, the one list of them.
struct ColumnStore {
  std::vector<int> system_id;
  std::vector<int> node_id;
  std::vector<Seconds> start;
  std::vector<Seconds> end;
  std::vector<Workload> workload;
  std::vector<RootCause> cause;
  std::vector<DetailCause> detail;

  /// Calls f(column, field) for each column in declaration order: a
  /// pointer to the member vector and one to the FailureRecord field it
  /// stores. Both are constants, so the calls inline to straight-line
  /// code over the seven members.
  template <typename F>
  static void for_each_column(F&& f) {
    f(&ColumnStore::system_id, &FailureRecord::system_id);
    f(&ColumnStore::node_id, &FailureRecord::node_id);
    f(&ColumnStore::start, &FailureRecord::start);
    f(&ColumnStore::end, &FailureRecord::end);
    f(&ColumnStore::workload, &FailureRecord::workload);
    f(&ColumnStore::cause, &FailureRecord::cause);
    f(&ColumnStore::detail, &FailureRecord::detail);
  }

  std::size_t size() const noexcept { return start.size(); }
  bool empty() const noexcept { return start.empty(); }

  void reserve(std::size_t n);
  void resize(std::size_t n);
  void clear() noexcept;

  /// Erases the first n rows of every column (the retention/compaction
  /// trim). Clamped to size().
  void drop_front(std::size_t n);

  /// Appends one record as a row.
  void push_back(const FailureRecord& r);

  /// Row i reassembled as an AoS record.
  FailureRecord row(std::size_t i) const noexcept {
    FailureRecord r;
    for_each_column(
        [&](auto column, auto field) { r.*field = (this->*column)[i]; });
    return r;
  }

  /// Overwrites row i with `r`, the inverse of row(i). Requires
  /// i < size().
  void set_row(std::size_t i, const FailureRecord& r) noexcept {
    for_each_column(
        [&](auto column, auto field) { (this->*column)[i] = r.*field; });
  }

  /// Heap bytes held by the columns (capacity, i.e. the storage
  /// footprint exported through the obs gauge "dataset.bytes").
  std::size_t bytes() const noexcept;

  /// Columnarizes a record span, preserving order.
  static ColumnStore from_records(std::span<const FailureRecord> records);

  /// Reconstitutes rows [first, first + count) as AoS records — the
  /// edge-only bridge for golden tests and reference oracles.
  std::vector<FailureRecord> to_records(std::size_t first,
                                        std::size_t count) const;
  std::vector<FailureRecord> to_records() const {
    return to_records(0, size());
  }
};

/// Non-owning view of a contiguous row range [offset, offset + count) of a
/// ColumnStore. Copying a view copies a pointer and two indices. Views
/// borrow the store: they are invalidated when it is destroyed or mutated.
class ColumnsView {
 public:
  /// The empty view (no store, no rows).
  ColumnsView() = default;

  ColumnsView(const ColumnStore* store, std::size_t offset,
              std::size_t count) noexcept
      : store_(store), offset_(offset), count_(count) {}

  /// View of a whole store.
  explicit ColumnsView(const ColumnStore& store) noexcept
      : ColumnsView(&store, 0, store.size()) {}

  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  /// Row i of the view, reassembled by value.
  FailureRecord operator[](std::size_t i) const noexcept {
    return store_->row(offset_ + i);
  }
  FailureRecord front() const noexcept { return (*this)[0]; }
  FailureRecord back() const noexcept { return (*this)[count_ - 1]; }

  /// Typed column spans over exactly this view's rows — the zero-copy
  /// surface the fused numeric passes consume. Empty views (including the
  /// default-constructed one, which has no store) yield empty spans.
  std::span<const int> system_ids() const noexcept {
    return column(&ColumnStore::system_id);
  }
  std::span<const int> node_ids() const noexcept {
    return column(&ColumnStore::node_id);
  }
  std::span<const Seconds> starts() const noexcept {
    return column(&ColumnStore::start);
  }
  std::span<const Seconds> ends() const noexcept {
    return column(&ColumnStore::end);
  }
  std::span<const Workload> workloads() const noexcept {
    return column(&ColumnStore::workload);
  }
  std::span<const RootCause> causes() const noexcept {
    return column(&ColumnStore::cause);
  }
  std::span<const DetailCause> details() const noexcept {
    return column(&ColumnStore::detail);
  }

  /// Latest end among the viewed rows. Requires a non-empty view.
  Seconds last_end() const noexcept;

  /// Repair times (end - start) in minutes, one per viewed row, in row
  /// order — one fused pass over the start/end columns.
  std::vector<double> repair_times_minutes() const;

  /// Sum of the viewed rows' downtime, in minutes, added in row order.
  double total_downtime_minutes() const noexcept;

  /// This view narrowed to rows [first, first + count) of itself.
  ColumnsView subview(std::size_t first, std::size_t count) const noexcept {
    return {store_, offset_ + first, count};
  }

  const ColumnStore* store() const noexcept { return store_; }
  std::size_t offset() const noexcept { return offset_; }

  /// Deep copy of the viewed rows into a standalone store.
  ColumnStore to_store() const;

  /// AoS copy of the viewed rows (edge-only, see ColumnStore).
  std::vector<FailureRecord> to_records() const {
    return store_ == nullptr ? std::vector<FailureRecord>{}
                             : store_->to_records(offset_, count_);
  }

  /// Random-access iterator yielding FailureRecord values. Dereferencing
  /// assembles the row on the fly; range-for with `const FailureRecord&`
  /// binds to the lifetime-extended temporary, so row-oriented loops read
  /// exactly as they did over a record span.
  class iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = FailureRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = FailureRecord;

    iterator() = default;
    iterator(const ColumnStore* store, std::size_t pos) noexcept
        : store_(store), pos_(pos) {}

    FailureRecord operator*() const noexcept { return store_->row(pos_); }
    FailureRecord operator[](difference_type n) const noexcept {
      return store_->row(pos_ + static_cast<std::size_t>(n));
    }

    iterator& operator++() noexcept { ++pos_; return *this; }
    iterator operator++(int) noexcept { iterator t = *this; ++pos_; return t; }
    iterator& operator--() noexcept { --pos_; return *this; }
    iterator operator--(int) noexcept { iterator t = *this; --pos_; return t; }
    iterator& operator+=(difference_type n) noexcept {
      pos_ = static_cast<std::size_t>(static_cast<difference_type>(pos_) + n);
      return *this;
    }
    iterator& operator-=(difference_type n) noexcept { return *this += -n; }
    friend iterator operator+(iterator it, difference_type n) noexcept {
      return it += n;
    }
    friend iterator operator+(difference_type n, iterator it) noexcept {
      return it += n;
    }
    friend iterator operator-(iterator it, difference_type n) noexcept {
      return it -= n;
    }
    friend difference_type operator-(const iterator& a,
                                     const iterator& b) noexcept {
      return static_cast<difference_type>(a.pos_) -
             static_cast<difference_type>(b.pos_);
    }
    friend bool operator==(const iterator& a, const iterator& b) noexcept {
      return a.pos_ == b.pos_;
    }
    friend auto operator<=>(const iterator& a, const iterator& b) noexcept {
      return a.pos_ <=> b.pos_;
    }

   private:
    const ColumnStore* store_ = nullptr;
    std::size_t pos_ = 0;
  };

  iterator begin() const noexcept { return {store_, offset_}; }
  iterator end() const noexcept { return {store_, offset_ + count_}; }

 private:
  template <typename T>
  std::span<const T> column(
      std::vector<T> ColumnStore::*member) const noexcept {
    return count_ == 0 ? std::span<const T>{}
                       : std::span{(store_->*member).data() + offset_, count_};
  }

  const ColumnStore* store_ = nullptr;
  std::size_t offset_ = 0;
  std::size_t count_ = 0;
};

}  // namespace hpcfail::trace
