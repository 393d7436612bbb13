#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <tuple>

#include "trace/dataset.hpp"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  ++failed;
  mismatches.push_back(what);
}

void Outcome::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0;
  long resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

bool columns_equal(const hpcfail::trace::FailureDataset& a,
                   const hpcfail::trace::FailureDataset& b,
                   std::size_t* tied_rows) {
  if (tied_rows != nullptr) *tied_rows = 0;
  if (a.size() != b.size()) return false;
  const hpcfail::trace::ColumnsView x = a.records();
  const hpcfail::trace::ColumnsView y = b.records();
  const auto key = [](const hpcfail::trace::ColumnsView& v, std::size_t i) {
    return std::tuple(v.starts()[i], v.system_ids()[i], v.node_ids()[i]);
  };
  const auto row = [](const hpcfail::trace::ColumnsView& v, std::size_t i) {
    return std::tuple(v.starts()[i], v.system_ids()[i], v.node_ids()[i],
                      v.ends()[i], v.workloads()[i], v.causes()[i],
                      v.details()[i]);
  };
  using Row = decltype(row(x, 0));
  std::vector<Row> xs;
  std::vector<Row> ys;
  for (std::size_t i = 0; i < x.size();) {
    std::size_t j = i + 1;
    while (j < x.size() && key(x, j) == key(x, i)) ++j;
    if (j - i == 1) {
      if (row(x, i) != row(y, i)) return false;
      i = j;
      continue;
    }
    if (tied_rows != nullptr) *tied_rows += j - i;
    xs.clear();
    ys.clear();
    for (std::size_t k = i; k < j; ++k) {
      xs.push_back(row(x, k));
      ys.push_back(row(y, k));
    }
    std::sort(xs.begin(), xs.end());
    std::sort(ys.begin(), ys.end());
    if (xs != ys) return false;
    i = j;
  }
  return true;
}

std::int64_t Tracer::open(const char* name, std::uint64_t op, bool cpu) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.op = op;
  span.parent = stack_.empty() ? -1 : stack_.back();
  if (cpu) span.cpu_s = process_cpu_seconds();
  span.start_ns = now_ns();
  const auto id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(span);
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::int64_t id) {
  if (id < 0) return;
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = now_ns();
  if (span.cpu_s >= 0.0) span.cpu_s = process_cpu_seconds() - span.cpu_s;
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::record(const char* name, std::uint64_t op, std::int64_t start_ns,
                    std::int64_t end_ns) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.op = op;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

std::vector<double> Tracer::cpu_durations(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name && s.cpu_s >= 0.0) out.push_back(s.cpu_s);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  struct Summary {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Summary> by_name;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld,\"op\":%llu,"
                 "\"cpu_s\":%.9g}\n",
                 i, s.name, static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - origin),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.cpu_s);
    Summary& sum = by_name[s.name];
    ++sum.calls;
    sum.total_ns += dur;
    sum.self_ns += dur - child_ns[i];
  }
  for (const auto& [name, sum] : by_name) {
    std::fprintf(f,
                 "{\"summary\":\"%s\",\"calls\":%llu,\"total_s\":%.9g,"
                 "\"self_s\":%.9g}\n",
                 name.c_str(), static_cast<unsigned long long>(sum.calls),
                 static_cast<double>(sum.total_ns) * 1e-9,
                 static_cast<double>(sum.self_ns) * 1e-9);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
