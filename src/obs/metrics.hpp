// Thread-safe metrics registry: counters, gauges, and log-bucketed
// histograms for latencies and sizes.
//
// Design constraints, in priority order:
//   1. Recording must be cheap enough for instrumented hot paths: a
//      metric handle is looked up once (shared-lock map probe) and then
//      recorded through lock-free atomics. Call sites on hot loops cache
//      the handle per stage/shard, never per record.
//   2. Collection must never perturb results: nothing here touches the
//      PRNG streams or changes iteration order, so traces and fits are
//      bit-identical with observability on or off (asserted by
//      tests/obs/determinism_obs_test.cpp).
//   3. Everything can be turned off: obs::disable() flips one atomic that
//      call sites check first, and building with -DHPCFAIL_OBS_DISABLE
//      compiles enabled() down to `false` so the branches fold away.
//
// Metric names are dotted paths with optional {key=value} labels, e.g.
// "synth.shard_seconds{system=20}". The registry treats the full string
// as the identity; exporters may re-interpret labels.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hpcfail::obs {

/// True when metric recording is globally enabled (the default). Compiled
/// to a constant false under -DHPCFAIL_OBS_DISABLE.
#ifdef HPCFAIL_OBS_DISABLE
constexpr bool enabled() noexcept { return false; }
#else
bool enabled() noexcept;
#endif

/// Globally enables/disables recording. Metric handles stay valid while
/// disabled; record calls become no-ops at the call-site check.
void set_enabled(bool on) noexcept;
inline void enable() noexcept { set_enabled(true); }
inline void disable() noexcept { set_enabled(false); }

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written (or accumulated) floating-point value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double v) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + v,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed log-spaced histogram for latencies (seconds) and sizes (counts,
/// bytes). Buckets span [1e-9, 1e9) with four buckets per decade; values
/// outside the range land in the first / overflow bucket. One layout for
/// every histogram keeps recording branch-free and exports comparable.
class Histogram {
 public:
  static constexpr std::size_t kBucketsPerDecade = 4;
  static constexpr int kMinExponent = -9;  ///< first bound 1e-9
  static constexpr int kMaxExponent = 9;   ///< last finite bound 1e9
  static constexpr std::size_t kBucketCount =
      static_cast<std::size_t>(kMaxExponent - kMinExponent) *
          kBucketsPerDecade +
      1;  ///< +1 overflow bucket (> 1e9)

  /// Upper bound of bucket `i` (inclusive); +infinity for the overflow
  /// bucket. Pure function of the fixed layout.
  static double bucket_bound(std::size_t i) noexcept;

  /// Index of the bucket whose bound is the smallest >= v.
  static std::size_t bucket_index(double v) noexcept;

  void record(double v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  /// +infinity when empty.
  double min() const noexcept { return min_.load(std::memory_order_relaxed); }
  /// -infinity when empty.
  double max() const noexcept { return max_.load(std::memory_order_relaxed); }
  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBucketCount] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;

 public:
  Histogram() noexcept;
};

/// Point-in-time copy of a registry, for exporters and tests. Sorted by
/// name so exports are deterministic.
struct MetricsSnapshot {
  struct HistogramValue {
    std::string name;
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    /// (upper bound, count) for every non-empty bucket, ascending bound.
    std::vector<std::pair<double, std::uint64_t>> buckets;
  };
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramValue> histograms;
};

/// Named metric store. Handles returned by counter()/gauge()/histogram()
/// stay valid for the registry's lifetime; lookups take a shared lock,
/// first-use creation a unique lock. The process-wide instance is
/// obs::registry(); tests may build their own.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  MetricsSnapshot snapshot() const;

  /// Drops every metric. Outstanding handles are invalidated;
  /// intended for test isolation, not concurrent use with recorders.
  void reset();

 private:
  template <typename T>
  T& get_or_create(std::map<std::string, std::unique_ptr<T>>& map,
                   std::string_view name);

  mutable std::shared_mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry every built-in instrumentation point records
/// into.
Registry& registry();

}  // namespace hpcfail::obs
