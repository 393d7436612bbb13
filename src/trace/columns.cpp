#include "trace/columns.hpp"

#include <algorithm>

namespace hpcfail::trace {

void ColumnStore::reserve(std::size_t n) {
  for_each_column([&](auto column, auto) { (this->*column).reserve(n); });
}

void ColumnStore::resize(std::size_t n) {
  for_each_column([&](auto column, auto) { (this->*column).resize(n); });
}

void ColumnStore::drop_front(std::size_t n) {
  n = std::min(n, size());
  if (n == 0) return;
  const auto cut = static_cast<std::ptrdiff_t>(n);
  for_each_column([&](auto column, auto) {
    auto& c = this->*column;
    c.erase(c.begin(), c.begin() + cut);
  });
}

void ColumnStore::clear() noexcept {
  for_each_column([this](auto column, auto) { (this->*column).clear(); });
}

void ColumnStore::push_back(const FailureRecord& r) {
  for_each_column([&](auto column, auto field) {
    (this->*column).push_back(r.*field);
  });
}

std::size_t ColumnStore::bytes() const noexcept {
  std::size_t total = 0;
  for_each_column([&](auto column, auto) {
    const auto& c = this->*column;
    total += c.capacity() * sizeof(c[0]);
  });
  return total;
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
  ColumnStore::for_each_column([&](auto column, auto) {
    const auto& src = store_->*column;
    (out.*column).assign(src.begin() + lo, src.begin() + hi);
  });
  return out;
}

}  // namespace hpcfail::trace
