#include "trace/columns.hpp"

#include <algorithm>

namespace hpcfail::trace {

void ColumnStore::reserve(std::size_t n) {
  system_id.reserve(n);
  node_id.reserve(n);
  start.reserve(n);
  end.reserve(n);
  workload.reserve(n);
  cause.reserve(n);
  detail.reserve(n);
}

void ColumnStore::resize(std::size_t n) {
  system_id.resize(n);
  node_id.resize(n);
  start.resize(n);
  end.resize(n);
  workload.resize(n);
  cause.resize(n);
  detail.resize(n);
}

void ColumnStore::drop_front(std::size_t n) {
  n = std::min(n, size());
  if (n == 0) return;
  const auto cut = static_cast<std::ptrdiff_t>(n);
  system_id.erase(system_id.begin(), system_id.begin() + cut);
  node_id.erase(node_id.begin(), node_id.begin() + cut);
  start.erase(start.begin(), start.begin() + cut);
  end.erase(end.begin(), end.begin() + cut);
  workload.erase(workload.begin(), workload.begin() + cut);
  cause.erase(cause.begin(), cause.begin() + cut);
  detail.erase(detail.begin(), detail.begin() + cut);
}

void ColumnStore::clear() noexcept {
  system_id.clear();
  node_id.clear();
  start.clear();
  end.clear();
  workload.clear();
  cause.clear();
  detail.clear();
}

void ColumnStore::push_back(const FailureRecord& r) {
  system_id.push_back(r.system_id);
  node_id.push_back(r.node_id);
  start.push_back(r.start);
  end.push_back(r.end);
  workload.push_back(r.workload);
  cause.push_back(r.cause);
  detail.push_back(r.detail);
}

void ColumnStore::push_row(const ColumnStore& other, std::size_t i) {
  system_id.push_back(other.system_id[i]);
  node_id.push_back(other.node_id[i]);
  start.push_back(other.start[i]);
  end.push_back(other.end[i]);
  workload.push_back(other.workload[i]);
  cause.push_back(other.cause[i]);
  detail.push_back(other.detail[i]);
}

std::size_t ColumnStore::bytes() const noexcept {
  return system_id.capacity() * sizeof(int) +
         node_id.capacity() * sizeof(int) +
         start.capacity() * sizeof(Seconds) +
         end.capacity() * sizeof(Seconds) +
         workload.capacity() * sizeof(Workload) +
         cause.capacity() * sizeof(RootCause) +
         detail.capacity() * sizeof(DetailCause);
}

ColumnStore ColumnStore::from_records(std::span<const FailureRecord> records) {
  ColumnStore store;
  store.reserve(records.size());
  for (const FailureRecord& r : records) {
    store.push_back(r);
  }
  return store;
}

std::vector<FailureRecord> ColumnStore::to_records(std::size_t first,
                                                   std::size_t count) const {
  std::vector<FailureRecord> out;
  out.reserve(count);
  for (std::size_t i = first; i < first + count; ++i) {
    out.push_back(row(i));
  }
  return out;
}

Seconds ColumnsView::last_end() const noexcept {
  const std::span<const Seconds> e = ends();
  Seconds latest = e.front();
  for (const Seconds x : e) latest = std::max(latest, x);
  return latest;
}

std::vector<double> ColumnsView::repair_times_minutes() const {
  // The division stays a division so the values match
  // FailureRecord::downtime_minutes() bit for bit.
  const std::span<const Seconds> s = starts();
  const std::span<const Seconds> e = ends();
  std::vector<double> times;
  times.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    times.push_back(static_cast<double>(e[i] - s[i]) / 60.0);
  }
  return times;
}

double ColumnsView::total_downtime_minutes() const noexcept {
  const std::span<const Seconds> s = starts();
  const std::span<const Seconds> e = ends();
  double total = 0.0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    total += static_cast<double>(e[i] - s[i]) / 60.0;
  }
  return total;
}

ColumnStore ColumnsView::to_store() const {
  ColumnStore out;
  if (store_ == nullptr || count_ == 0) {
    return out;
  }
  const std::size_t lo = offset_;
  const std::size_t hi = offset_ + count_;
  out.system_id.assign(store_->system_id.begin() + lo,
                       store_->system_id.begin() + hi);
  out.node_id.assign(store_->node_id.begin() + lo,
                     store_->node_id.begin() + hi);
  out.start.assign(store_->start.begin() + lo, store_->start.begin() + hi);
  out.end.assign(store_->end.begin() + lo, store_->end.begin() + hi);
  out.workload.assign(store_->workload.begin() + lo,
                      store_->workload.begin() + hi);
  out.cause.assign(store_->cause.begin() + lo, store_->cause.begin() + hi);
  out.detail.assign(store_->detail.begin() + lo, store_->detail.begin() + hi);
  return out;
}

}  // namespace hpcfail::trace
