#include "trace/dataset.hpp"

#include <string>

#include "common/error.hpp"
#include "obs/metrics.hpp"
#include "trace/index.hpp"
#include "trace/merge.hpp"

namespace hpcfail::trace {

namespace {

[[noreturn]] void throw_inconsistent(std::size_t index) {
  throw InvalidArgument("inconsistent failure record at index " +
                        std::to_string(index) +
                        " (end < start, bad ids, or cause/detail "
                        "mismatch)");
}

/// Fused columnar form of FailureRecord::is_consistent(): per-row checks
/// plus (start, system, node) sortedness, one streaming pass per column
/// group. Returns whether the columns are sorted; throws on the first
/// inconsistent row, reporting its index.
bool validate_columns(const ColumnStore& c) {
  const std::size_t n = c.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (c.end[i] < c.start[i] || c.system_id[i] < 1 || c.node_id[i] < 0 ||
        category_of(c.detail[i]) != c.cause[i]) {
      throw_inconsistent(i);
    }
  }
  for (std::size_t i = 1; i < n; ++i) {
    if (c.start[i] != c.start[i - 1]) {
      if (c.start[i] < c.start[i - 1]) return false;
    } else if (c.system_id[i] != c.system_id[i - 1]) {
      if (c.system_id[i] < c.system_id[i - 1]) return false;
    } else if (c.node_id[i] < c.node_id[i - 1]) {
      return false;
    }
  }
  return true;
}

void record_bytes_gauge(const ColumnStore& columns) {
  if (obs::enabled()) {
    obs::registry().gauge("dataset.bytes")
        .set(static_cast<double>(columns.bytes()));
  }
}

}  // namespace

FailureDataset::FailureDataset(std::vector<FailureRecord> records)
    : FailureDataset(from_columns(ColumnStore::from_records(records))) {}

FailureDataset FailureDataset::from_columns(ColumnStore columns) {
  if (!validate_columns(columns)) {
    // Rare slow path (the generator and every CSV this library writes
    // arrive sorted). Stable, so equal keys keep their input order.
    columns = merge_sorted({&columns});
  }
  FailureDataset out;
  out.columns_ = std::move(columns);
  record_bytes_gauge(out.columns_);
  return out;
}

FailureDataset::FailureDataset() = default;
FailureDataset::~FailureDataset() = default;

FailureDataset::FailureDataset(const FailureDataset& other)
    : columns_(other.columns_) {}

FailureDataset& FailureDataset::operator=(const FailureDataset& other) {
  if (this != &other) {
    columns_ = other.columns_;
    std::lock_guard<std::mutex> lock(index_mutex_);
    index_.reset();
  }
  return *this;
}

FailureDataset::FailureDataset(FailureDataset&& other) noexcept {
  // Hold the source's mutex so a concurrent index()/view() on it can't
  // observe the buffer mid-steal; its index holds views into the columns
  // we take, so drop it.
  std::lock_guard<std::mutex> lock(other.index_mutex_);
  columns_ = std::move(other.columns_);
  other.index_.reset();
}

FailureDataset& FailureDataset::operator=(FailureDataset&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(index_mutex_, other.index_mutex_);
    columns_ = std::move(other.columns_);
    index_.reset();
    other.index_.reset();
  }
  return *this;
}

const DatasetIndex& FailureDataset::index() const {
  std::lock_guard<std::mutex> lock(index_mutex_);
  if (!index_) index_ = std::make_unique<DatasetIndex>(columns_);
  return *index_;
}

DatasetView FailureDataset::view() const { return index().all(); }

FailureDataset FailureDataset::from_sorted_columns(ColumnStore columns) {
  FailureDataset out;
  out.columns_ = std::move(columns);
  return out;
}

Seconds FailureDataset::first_start() const {
  HPCFAIL_EXPECTS(!columns_.empty(), "first_start of empty dataset");
  return columns_.start.front();
}

Seconds FailureDataset::last_end() const {
  HPCFAIL_EXPECTS(!columns_.empty(), "last_end of empty dataset");
  return records().last_end();
}

FailureDataset FailureDataset::filter(
    const std::function<bool(const FailureRecord&)>& keep) const {
  ColumnStore kept;
  const std::size_t n = columns_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const FailureRecord r = columns_.row(i);
    if (keep(r)) kept.push_back(r);
  }
  return from_sorted_columns(std::move(kept));  // already sorted + validated
}

std::vector<double> FailureDataset::repair_times_minutes() const {
  return records().repair_times_minutes();
}

std::vector<int> FailureDataset::system_ids() const {
  return index().system_ids();
}

double FailureDataset::total_downtime_minutes() const noexcept {
  return records().total_downtime_minutes();
}

}  // namespace hpcfail::trace
