// Shared pieces of the perfbench binary: options, the result every
// workload hands back, clocks and resource probes, order statistics, a
// content digest, and the in-memory span tracer of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace hpcfail::trace {
class FailureDataset;
}  // namespace hpcfail::trace

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured phase
  bool trace = false;     ///< traced run: report per-layer metrics
  bool tiny = false;      ///< smoke-test input sizes
  bool corrupt = false;   ///< corrupt one output so its check must fail
  std::string out_dir = ".bench_build/perfbench/runs";  ///< spans + record
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced: operation accounting, failed checks,
/// and the metrics it reports.
class Outcome {
 public:
  /// Records a correctness check; a false `ok` counts one failed op.
  void check(bool ok, const std::string& what);
  void add(std::string name, double value, std::string unit);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> mismatches;
  std::vector<Metric> metrics;
};

double seconds_since(Clock::time_point start);
std::int64_t now_ns();
/// CPU time of the whole process (all threads), seconds.
double process_cpu_seconds();
/// Peak and current resident set size, MiB.
double peak_rss_mb();
double current_rss_mb();

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

/// Column identity of two datasets, except that rows sharing one (start,
/// system, node) key may come back in another order: FailureDataset's
/// record constructor (behind read_csv) sorts with std::sort, which does
/// not keep the order of equal keys. Such rows are compared as multisets;
/// `tied_rows` (optional) counts the rows in groups of equal keys.
bool columns_equal(const hpcfail::trace::FailureDataset& a,
                   const hpcfail::trace::FailureDataset& b,
                   std::size_t* tied_rows = nullptr);

/// Runs `setup` `reps` times (the last result is kept in `out`, the
/// previous one is dropped first, untimed) and returns the median wall
/// time of one repetition, seconds.
template <typename T, typename Fn>
double timed_setup(int reps, T& out, Fn&& setup) {
  std::vector<double> walls;
  for (int i = 0; i < reps; ++i) {
    out = T{};
    const auto start = Clock::now();
    out = setup();
    walls.push_back(seconds_since(start));
  }
  return median(std::move(walls));
}

/// FNV-1a over raw bytes: the output digests the checks compare.
class Digest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  template <typename T>
  void pod(const T& v) {
    unsigned char raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    bytes(raw, sizeof(T));
  }
  void text(std::string_view s) {
    pod(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Spans kept in memory by the traced run and written out at exit. A
/// disabled tracer records nothing, so the untraced run pays one branch.
/// Single-threaded: only the benchmark's own thread opens spans.
class Tracer {
 public:
  struct Span {
    const char* name = "";  ///< static string: "<module>.<call>"
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    double cpu_s = -1.0;  ///< process CPU over the span; < 0 = not taken
    std::int64_t parent = -1;
    std::uint64_t op = 0;  ///< pass / request / round id
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }

  /// Opens a span under the innermost open one; returns its id (-1 when
  /// disabled).
  std::int64_t open(const char* name, std::uint64_t op, bool cpu = false);
  void close(std::int64_t id);
  /// Records an already-timed span as a child of the innermost open one.
  void record(const char* name, std::uint64_t op, std::int64_t start_ns,
              std::int64_t end_ns);

  /// Seconds of every span named `name`, in open order.
  std::vector<double> durations(std::string_view name) const;
  std::vector<double> cpu_durations(std::string_view name) const;

  /// Writes every span (one JSON object per line) followed by one
  /// summary line per span name with its call count, total and self
  /// time. Self time is a span's duration minus its children's. Returns
  /// false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> stack_;
};

/// RAII span: opened on construction, closed on destruction.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::uint64_t op,
            bool cpu = false)
      : tracer_(tracer), id_(tracer.open(name, op, cpu)) {}
  ~SpanScope() { tracer_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

// Workloads. Each runs setup, an untimed warm-up, the measured phase and
// its correctness checks, and fills the metrics of its mode.
Outcome run_batch_pipeline(const Options& options, Tracer& tracer);
Outcome run_campaign(const Options& options, Tracer& tracer);

/// The serve and live-trace layers (live.cpp), run by the traced
/// batch_pipeline: adds their per-layer metrics and checks to `outcome`.
void measure_live_layers(const Options& options, Tracer& tracer,
                         Outcome& outcome);

}  // namespace perfbench
