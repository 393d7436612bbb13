#include "obs/metrics.hpp"

#include <cmath>
#include <limits>
#include <mutex>

namespace hpcfail::obs {

namespace {
std::atomic<bool> g_enabled{true};
}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

Histogram::Histogram() noexcept {
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

double Histogram::bucket_bound(std::size_t i) noexcept {
  if (i + 1 >= kBucketCount) return std::numeric_limits<double>::infinity();
  const double exponent =
      kMinExponent +
      static_cast<double>(i + 1) / static_cast<double>(kBucketsPerDecade);
  return std::pow(10.0, exponent);
}

std::size_t Histogram::bucket_index(double v) noexcept {
  if (!(v > 0.0)) return 0;  // non-positive and NaN land in the first bucket
  const double decades = std::log10(v) - kMinExponent;
  if (decades < 0.0) return 0;
  const auto i = static_cast<std::size_t>(
      decades * static_cast<double>(kBucketsPerDecade));
  if (i >= kBucketCount) return kBucketCount - 1;
  // log10 rounding can land one bucket off in either direction; nudge so
  // bounds stay inclusive (v exactly on a bound belongs to that bucket).
  if (v > bucket_bound(i) && i + 1 < kBucketCount) return i + 1;
  if (i > 0 && v <= bucket_bound(i - 1)) return i - 1;
  return i;
}

void Histogram::record(double v) noexcept {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
  double lo = min_.load(std::memory_order_relaxed);
  while (v < lo &&
         !min_.compare_exchange_weak(lo, v, std::memory_order_relaxed)) {
  }
  double hi = max_.load(std::memory_order_relaxed);
  while (v > hi &&
         !max_.compare_exchange_weak(hi, v, std::memory_order_relaxed)) {
  }
}

template <typename T>
T& Registry::get_or_create(std::map<std::string, std::unique_ptr<T>>& map,
                           std::string_view name) {
  {
    std::shared_lock lock(mutex_);
    const auto it = map.find(std::string(name));
    if (it != map.end()) return *it->second;
  }
  std::unique_lock lock(mutex_);
  auto& slot = map[std::string(name)];
  if (!slot) slot = std::make_unique<T>();
  return *slot;
}

Counter& Registry::counter(std::string_view name) {
  return get_or_create(counters_, name);
}

Gauge& Registry::gauge(std::string_view name) {
  return get_or_create(gauges_, name);
}

Histogram& Registry::histogram(std::string_view name) {
  return get_or_create(histograms_, name);
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  std::shared_lock lock(mutex_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) {
    snap.gauges.emplace_back(name, g->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramValue hv;
    hv.name = name;
    hv.count = h->count();
    hv.sum = h->sum();
    hv.min = hv.count ? h->min() : 0.0;
    hv.max = hv.count ? h->max() : 0.0;
    for (std::size_t i = 0; i < Histogram::kBucketCount; ++i) {
      const std::uint64_t n = h->bucket_count(i);
      if (n != 0) hv.buckets.emplace_back(Histogram::bucket_bound(i), n);
    }
    snap.histograms.push_back(std::move(hv));
  }
  return snap;
}

void Registry::reset() {
  std::unique_lock lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

Registry& registry() {
  static Registry instance;
  return instance;
}

}  // namespace hpcfail::obs
