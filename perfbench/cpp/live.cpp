// The live layers, measured by the traced batch_pipeline run: an
// in-process serve::Server on loopback, driven by the benchmark's own
// load generator (not serve::replay).
//
// Ingest: ~1M line-protocol events with strictly increasing starts over
// the LANL catalog's 22 systems / 4750 nodes, plus 0.1% malformed lines,
// sent closed-loop on 2 connections split by the stable (system, node)
// hash, from one client thread; one round into a fresh server with one
// ingest thread and one with two. A round runs from the first send until
// the server counts every line accepted or rejected. Checks per round:
// accepted == valid sent, rejected == malformed sent, and the final
// sealed snapshot is column-identical to a from-scratch FailureDataset of
// the valid lines. Then the stream is replayed through the public calls
// the server makes (LineSource feed/next, LiveDataset::append,
// LiveAnalytics::observe) on this thread, timing each call; a second,
// untimed replay gives the tracing overhead. Per-event calls are summed
// into per-layer totals rather than kept as spans (millions of spans
// would not fit the run's memory); chunks and seals are spans.
//
// Query phase: a server seeded with the batch_pipeline trace, 1 ingest
// shard, retention on (max_sealed_events below the seed size). An
// open-loop sender continues the trace clock at a fixed rate while one
// closed-loop reader cycles /report over 22 systems x {24 h, 7 d, 14 d},
// with every 10th request a /stats. Checks: every response is 200 with
// JSON that parses, a system's events_total never decreases, and at the
// end sealed + tails + compacted == seed + accepted. The same seed and the
// events sent are then replayed in process to time report + to_json and
// the compaction_cells() copy.
//
// None of this is an end-to-end workload: across ten-seed sets on a
// 4-vCPU VM, round throughput and /report latency moved with the host's
// memory contention by more than the largest bound the benchmark can set
// (see perfbench/README.md).
#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/time.hpp"
#include "harness.hpp"
#include "serve/analytics.hpp"
#include "serve/server.hpp"
#include "synth/generator.hpp"
#include "trace/catalog.hpp"
#include "trace/dataset.hpp"
#include "trace/ingest.hpp"
#include "trace/source.hpp"

namespace perfbench {
namespace {

using namespace hpcfail;

constexpr std::size_t kChunkBytes = 64 * 1024;  // the server's recv size
constexpr double kMalformedRate = 0.001;
constexpr int kStatsEvery = 10;  // every 10th query request is /stats
constexpr std::array<int, 3> kWindowHours = {24, 24 * 7, 24 * 14};

// ---------------------------------------------------------------------------
// Event streams

/// Uniform over the catalog's nodes: global node index -> (system, node).
class NodePicker {
 public:
  explicit NodePicker(const trace::SystemCatalog& catalog) {
    for (const trace::SystemInfo& s : catalog.systems()) {
      systems_.push_back(&s);
      total_ += s.nodes;
      ends_.push_back(total_);
    }
  }

  void pick(Rng& rng, trace::FailureRecord& r) const {
    const auto g = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(total_)));
    const std::size_t i = static_cast<std::size_t>(
        std::upper_bound(ends_.begin(), ends_.end(), g) - ends_.begin());
    const int first = i == 0 ? 0 : ends_[i - 1];
    r.system_id = systems_[i]->id;
    r.node_id = g - first;
    r.workload = systems_[i]->workload_of(r.node_id);
  }

 private:
  std::vector<const trace::SystemInfo*> systems_;
  std::vector<int> ends_;  ///< exclusive prefix sums of node counts
  int total_ = 0;
};

// One of each kind of line the server must reject and count.
constexpr const char* kMalformed[] = {
    "garbage\n",
    "20,5,2004-01-01 00:00:00\n",
    "20,5,2004-13-45 00:00:00,2004-01-01 01:00:00,compute,hardware,cpu\n",
    "20,5,2004-01-01 05:00:00,2004-01-01 01:00:00,compute,hardware,cpu\n",
    "20,5,2004-01-01 00:00:00,2004-01-01 01:00:00,compute,cosmic,cpu\n",
    "20,5,2004-01-01 00:00:00,2004-01-01 01:00:00,compute,software,cpu\n",
};

/// Renders line-protocol rows. Same text as format_timestamp and the
/// enum to_string()s, which the stream checks confirm (the server's
/// parse of every line must reproduce the record), but with the date
/// part cached per day and the enum names cached once, so building a 2M
/// event stream stays a small share of set-up.
class LineWriter {
 public:
  LineWriter() {
    for (int w = 0; w <= static_cast<int>(trace::Workload::frontend); ++w) {
      workloads_.push_back(
          trace::to_string(static_cast<trace::Workload>(w)));
    }
    for (int d = 0; d <= static_cast<int>(trace::DetailCause::undetermined);
         ++d) {
      const auto detail = static_cast<trace::DetailCause>(d);
      details_.push_back(trace::to_string(trace::category_of(detail)) + ',' +
                         trace::to_string(detail));
    }
  }

  void append(std::string& out, const trace::FailureRecord& r) {
    out += std::to_string(r.system_id);
    out += ',';
    out += std::to_string(r.node_id);
    out += ',';
    timestamp(out, r.start);
    out += ',';
    timestamp(out, r.end);
    out += ',';
    out += workloads_[static_cast<std::size_t>(r.workload)];
    out += ',';
    out += details_[static_cast<std::size_t>(r.detail)];
    out += '\n';
  }

 private:
  void timestamp(std::string& out, Seconds t) {
    const Seconds day = t - ((t % kSecondsPerDay) + kSecondsPerDay) %
                                kSecondsPerDay;
    if (day != cached_day_) {
      cached_day_ = day;
      date_ = format_timestamp(day).substr(0, 11);  // "YYYY-MM-DD "
    }
    out += date_;
    const Seconds s = t - day;
    const auto digit = [](Seconds v) { return static_cast<char>('0' + v); };
    const char hms[8] = {digit(s / 36000),     digit(s / 3600 % 10), ':',
                         digit(s % 3600 / 600), digit(s % 600 / 60),  ':',
                         digit(s % 60 / 10),    digit(s % 10)};
    out.append(hms, sizeof(hms));
  }

  std::vector<std::string> workloads_;
  std::vector<std::string> details_;  ///< "cause,detail"
  Seconds cached_day_ = -1;
  std::string date_;
};

/// The replay client's stable connection hash: one node's events always
/// travel on one connection, so per-node order holds end to end.
std::size_t connection_of(const trace::FailureRecord& r,
                          std::size_t connections) {
  return (static_cast<std::size_t>(r.system_id) * 8191u +
          static_cast<std::size_t>(r.node_id)) %
         connections;
}

struct Stream {
  std::vector<trace::FailureRecord> valid;  ///< send order
  std::vector<std::string> text;            ///< one per connection
  std::uint64_t malformed = 0;
};

/// `count` valid events with strictly increasing starts after `after`,
/// plus malformed lines at `malformed_rate`, split over `connections`.
Stream make_stream(std::uint64_t seed, std::size_t count,
                   std::size_t connections, Seconds after,
                   double malformed_rate) {
  static const NodePicker picker(trace::SystemCatalog::lanl());
  LineWriter writer;
  Rng rng(mix_seed(seed, 0x11fe));
  Stream s;
  s.valid.reserve(count);
  s.text.resize(connections);
  for (std::string& t : s.text) t.reserve(count * 80 / connections);
  Seconds at = after;
  for (std::size_t i = 0; i < count; ++i) {
    if (rng.bernoulli(malformed_rate)) {
      s.text[rng.uniform_index(connections)] +=
          kMalformed[rng.uniform_index(std::size(kMalformed))];
      ++s.malformed;
    }
    trace::FailureRecord r;
    picker.pick(rng, r);
    at += 1 + static_cast<Seconds>(rng.uniform_index(30));
    r.start = at;
    r.end = at + 60 + static_cast<Seconds>(rng.uniform_index(7200));
    r.detail = static_cast<trace::DetailCause>(rng.uniform_index(16));
    r.cause = trace::category_of(r.detail);
    writer.append(s.text[connection_of(r, connections)], r);
    s.valid.push_back(r);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Loopback client

class Socket {
 public:
  explicit Socket(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      ::close(fd_);
      throw std::runtime_error("connect to 127.0.0.1:" +
                               std::to_string(port) + " failed");
    }
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const noexcept { return fd_; }

  /// Blocks until every byte is written (TCP backpressure = closed loop).
  bool send_all(std::string_view data) const {
    while (!data.empty()) {
      const ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      data.remove_prefix(static_cast<std::size_t>(n));
    }
    return true;
  }

  void finish_writes() const { ::shutdown(fd_, SHUT_WR); }

 private:
  int fd_;
};

struct HttpResponse {
  int status = 0;
  std::string body;
};

HttpResponse http_get(int port, const std::string& target) {
  Socket s(port);
  HttpResponse out;
  if (!s.send_all("GET " + target + " HTTP/1.0\r\n\r\n")) return out;
  std::string raw;
  char buf[16384];
  while (true) {
    const ssize_t n = ::recv(s.fd(), buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t space = raw.find(' ');
  const std::size_t header_end = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/", 0) != 0 || space == std::string::npos ||
      header_end == std::string::npos) {
    return out;
  }
  out.status = std::atoi(raw.c_str() + space + 1);
  out.body = raw.substr(header_end + 4);
  return out;
}

// ---------------------------------------------------------------------------
// JSON: a strict validator (RFC 8259 grammar) and a top-level number reader.

class JsonChecker {
 public:
  static bool valid(std::string_view text) {
    JsonChecker c(text);
    c.ws();
    if (!c.value(0)) return false;
    c.ws();
    return c.pos_ == text.size();
  }

 private:
  explicit JsonChecker(std::string_view t) : t_(t) {}

  bool eat(char ch) {
    if (pos_ < t_.size() && t_[pos_] == ch) {
      ++pos_;
      return true;
    }
    return false;
  }
  void ws() {
    while (pos_ < t_.size() && (t_[pos_] == ' ' || t_[pos_] == '\n' ||
                                t_[pos_] == '\r' || t_[pos_] == '\t')) {
      ++pos_;
    }
  }
  bool literal(std::string_view word) {
    if (t_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < t_.size() && t_[pos_] >= '0' && t_[pos_] <= '9') ++pos_;
    return pos_ > start;
  }
  bool number() {
    eat('-');
    if (!eat('0') && !digits()) return false;
    if (eat('.') && !digits()) return false;
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digits()) return false;
    }
    return true;
  }
  bool string() {
    if (!eat('"')) return false;
    while (pos_ < t_.size()) {
      const char ch = t_[pos_++];
      if (ch == '"') return true;
      if (static_cast<unsigned char>(ch) < 0x20) return false;
      if (ch == '\\') {
        if (pos_ >= t_.size()) return false;
        const char esc = t_[pos_++];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= t_.size() ||
                !std::isxdigit(static_cast<unsigned char>(t_[pos_]))) {
              return false;
            }
            ++pos_;
          }
        } else if (std::string_view("\"\\/bfnrt").find(esc) ==
                   std::string_view::npos) {
          return false;
        }
      }
    }
    return false;
  }
  bool value(int depth) {
    if (depth > 64 || pos_ >= t_.size()) return false;
    const char ch = t_[pos_];
    if (ch == '{' || ch == '[') {
      const char close = ch == '{' ? '}' : ']';
      ++pos_;
      ws();
      if (eat(close)) return true;
      while (true) {
        if (ch == '{') {
          if (!string()) return false;
          ws();
          if (!eat(':')) return false;
          ws();
        }
        if (!value(depth + 1)) return false;
        ws();
        if (eat(close)) return true;
        if (!eat(',')) return false;
        ws();
      }
    }
    if (ch == '"') return string();
    if (ch == 't') return literal("true");
    if (ch == 'f') return literal("false");
    if (ch == 'n') return literal("null");
    return number();
  }

  std::string_view t_;
  std::size_t pos_ = 0;
};

/// Every number following `"key":` in `json`, in document order.
std::vector<double> json_numbers(const std::string& json,
                                 const std::string& key) {
  std::vector<double> out;
  const std::string needle = "\"" + key + "\":";
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + 1)) {
    out.push_back(std::strtod(json.c_str() + at + needle.size(), nullptr));
  }
  return out;
}

double shard_skew(const std::string& stats_json) {
  const std::size_t shards = stats_json.find("\"shards\":");
  if (shards == std::string::npos) return 0.0;
  const std::vector<double> accepted =
      json_numbers(stats_json.substr(shards), "accepted");
  if (accepted.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(accepted.begin(), accepted.end());
  return *lo > 0.0 ? *hi / *lo : 0.0;
}

// ---------------------------------------------------------------------------
// Traced replay through the server's public calls, on this thread

struct ReplayStats {
  std::uint64_t events = 0;
  double wall_s = 0.0;
  double parse_ns = 0.0;    ///< per event: feed + next
  double append_ns = 0.0;   ///< per append that did not seal
  double observe_ns = 0.0;  ///< per event
  std::uint64_t seals = 0;  ///< appends that sealed, plus the final seal
  double seal_max_ms = 0.0;
};

/// Feeds `text` (one string per connection, interleaved chunk by chunk
/// like the server's poll loop; connection c appends to shard c modulo
/// the shard count) into `live` and `analytics`. With
/// `timed`, every call is clocked; without, the same loop runs bare so
/// the two walls give the tracing overhead.
ReplayStats replay(const std::vector<std::string>& text,
                   trace::LiveDataset& live, serve::LiveAnalytics& analytics,
                   bool timed, Tracer& tracer) {
  ReplayStats st;
  std::vector<trace::LineSource> sources(text.size());
  std::vector<std::size_t> offsets(text.size(), 0);
  std::int64_t parse = 0;
  std::int64_t append = 0;
  std::int64_t observe = 0;
  std::uint64_t plain_appends = 0;
  std::int64_t seal_max = 0;
  Seconds horizon = live.compacted_events() > 0 ? live.retention_horizon()
                                                : Seconds{0};
  trace::FailureRecord r;
  const auto start = Clock::now();
  std::uint64_t chunk = 0;
  for (bool more = true; more;) {
    more = false;
    for (std::size_t c = 0; c < text.size(); ++c) {
      if (offsets[c] >= text[c].size()) continue;
      more = true;
      const std::string_view bytes = std::string_view(text[c]).substr(
          offsets[c], std::min(kChunkBytes, text[c].size() - offsets[c]));
      offsets[c] += bytes.size();
      trace::LineSource& src = sources[c];
      if (!timed) {
        src.feed(bytes);
        while (src.next(r) == trace::SourceStatus::event) {
          live.append(c % live.shards(), r);
          analytics.observe(r);
        }
        continue;
      }
      SpanScope chunk_span(tracer, "replay.chunk", chunk++);
      std::int64_t t0 = now_ns();
      src.feed(bytes);
      while (true) {
        const trace::SourceStatus status = src.next(r);
        const std::int64_t t1 = now_ns();
        parse += t1 - t0;
        if (status != trace::SourceStatus::event) break;
        const std::uint64_t epoch = live.epoch();
        live.append(c % live.shards(), r);
        const std::int64_t t2 = now_ns();
        if (live.epoch() != epoch) {
          ++st.seals;
          seal_max = std::max(seal_max, t2 - t1);
          tracer.record("trace.seal", chunk, t1, t2);
        } else {
          append += t2 - t1;
          ++plain_appends;
        }
        analytics.observe(r);
        t0 = now_ns();
        observe += t0 - t2;
      }
    }
    // The server trims the analytics windows to the retention horizon
    // after seals (shard 0's compact_analytics_to_horizon).
    if (live.compacted_events() > 0 && live.retention_horizon() != horizon) {
      horizon = live.retention_horizon();
      analytics.compact_before(horizon);
    }
  }
  {
    const std::int64_t t = now_ns();
    live.seal();
    const std::int64_t end = now_ns();
    if (timed) {
      ++st.seals;
      seal_max = std::max(seal_max, end - t);
      tracer.record("trace.seal", chunk, t, end);
    }
  }
  st.wall_s = seconds_since(start);
  for (const trace::LineSource& src : sources) {
    st.events += src.counters().accepted;
  }
  if (!timed) return st;

  const auto per = [](std::int64_t ns, std::uint64_t n) {
    return n > 0 ? static_cast<double>(ns) / static_cast<double>(n) : 0.0;
  };
  st.parse_ns = per(parse, st.events);
  st.append_ns = per(append, plain_appends);
  st.observe_ns = per(observe, st.events);
  st.seal_max_ms = static_cast<double>(seal_max) * 1e-6;
  return st;
}

void add_replay_metrics(Outcome& outcome, const ReplayStats& timed,
                        const ReplayStats& bare) {
  outcome.add("trace.parse_ns", timed.parse_ns, "ns");
  outcome.add("trace.append_ns", timed.append_ns, "ns");
  outcome.add("trace.seal_count", static_cast<double>(timed.seals), "count");
  outcome.add("trace.seal_max_ms", timed.seal_max_ms, "ms");
  outcome.add("serve.observe_ns", timed.observe_ns, "ns");
  outcome.add("bench.live_trace_overhead_pct",
              (timed.wall_s / bare.wall_s - 1.0) * 100.0, "%");
}

/// Times the reports /report builds, for every system x window: report +
/// the compaction-ledger merge (one compaction_cells() copy per request)
/// + to_json.
void add_report_metrics(Outcome& outcome, const trace::LiveDataset& live,
                        const serve::LiveAnalytics& analytics,
                        Tracer& tracer) {
  std::vector<double> report_us;
  std::vector<double> cells_us;
  std::size_t cell_count = 0;
  std::uint64_t op = 0;
  for (const int system : analytics.system_ids()) {
    for (const int hours : kWindowHours) {
      SpanScope s(tracer, "serve.report", op++);
      const std::int64_t t = now_ns();
      serve::WindowReport report =
          analytics.report(system, hours * kSecondsPerHour);
      const std::int64_t t_cells = now_ns();
      const std::vector<trace::CompactionCell> cells = live.compaction_cells();
      const std::int64_t t_json = now_ns();
      tracer.record("trace.compaction_cells", op, t_cells, t_json);
      for (const trace::CompactionCell& cell : cells) {
        if (cell.system_id == system) {
          report.compacted_events += cell.repair_minutes.n;
        }
      }
      const std::string json = serve::to_json(report);
      const std::int64_t end = now_ns();
      cell_count = cells.size();
      cells_us.push_back(static_cast<double>(t_json - t_cells) * 1e-3);
      report_us.push_back(
          static_cast<double>((t_cells - t) + (end - t_json)) * 1e-3);
    }
  }
  outcome.add("serve.report_us", median(report_us), "us");
  outcome.add("trace.compaction_cells", static_cast<double>(cell_count),
              "count");
  outcome.add("trace.compaction_cells_us", median(cells_us), "us");
}

// ---------------------------------------------------------------------------
// live_ingest

struct Round {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  bool identical = true;
  double skew = 0.0;
  std::uint64_t epochs = 0;
  std::uint64_t http_failures = 0;  ///< request timeouts + truncated
};

Round ingest_round(const Stream& stream, const trace::FailureDataset* reference,
                   std::size_t shards, bool drop_first_line) {
  serve::ServerOptions options;
  options.ingest_threads = shards;
  serve::Server server(options);
  server.start();

  std::vector<std::string_view> parts(stream.text.begin(), stream.text.end());
  if (drop_first_line) parts[0].remove_prefix(parts[0].find('\n') + 1);
  std::vector<std::unique_ptr<Socket>> conns;
  for (std::size_t c = 0; c < parts.size(); ++c) {
    conns.push_back(std::make_unique<Socket>(server.ingest_port()));
  }
  const std::uint64_t expected = stream.valid.size() + stream.malformed;

  // One client thread drives every connection: it writes whichever
  // socket has room (closed loop: a full socket buffer is the server's
  // backpressure), then watches the server's counters. Done when every
  // line is counted; a stream that comes up short (a dropped line) ends
  // once the counts stopped moving for a second.
  Round round;
  const double cpu_start = process_cpu_seconds();
  const auto start = Clock::now();
  std::vector<pollfd> fds;
  for (const auto& conn : conns) fds.push_back({conn->fd(), POLLOUT, 0});
  bool send_failed = false;
  for (std::size_t open = parts.size(); open > 0 && !send_failed;) {
    if (::poll(fds.data(), fds.size(), 1000) < 0 && errno != EINTR) {
      send_failed = true;
    }
    for (std::size_t c = 0; c < parts.size(); ++c) {
      if ((fds[c].revents & (POLLOUT | POLLERR | POLLHUP)) == 0) continue;
      const ssize_t n = ::send(fds[c].fd, parts[c].data(),
                               std::min(parts[c].size(), kChunkBytes * 4),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
      if (n <= 0) {
        send_failed = true;
        break;
      }
      parts[c].remove_prefix(static_cast<std::size_t>(n));
      if (parts[c].empty()) {
        conns[c]->finish_writes();
        fds[c].fd = -1;  // poll ignores it from now on
        --open;
      }
    }
  }
  std::uint64_t last_seen = 0;
  auto last_progress = Clock::now();
  while (!send_failed) {
    const std::uint64_t seen =
        server.events_ingested() + server.events_rejected();
    if (seen >= expected) break;
    if (seen != last_seen) {
      last_seen = seen;
      last_progress = Clock::now();
    } else if (seconds_since(last_progress) > 1.0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  round.wall_s = seconds_since(start);
  round.cpu_s = process_cpu_seconds() - cpu_start;

  const HttpResponse stats = http_get(server.http_port(), "/stats");
  round.skew = shard_skew(stats.body);
  server.stop();
  server.wait();
  round.accepted = server.events_ingested();
  round.rejected = server.events_rejected();
  round.epochs = server.dataset().epoch();
  round.http_failures =
      server.http_request_timeouts() + server.http_truncated_responses();
  if (reference != nullptr) {
    round.identical =
        !send_failed && columns_equal(*server.dataset().snapshot(),
                                          *reference);
  }
  return round;
}

// ---------------------------------------------------------------------------
// The query phase

struct QueryServer {
  std::unique_ptr<serve::Server> server;
  std::size_t seed_size = 0;
  std::map<int, std::uint64_t> seed_per_system;
  Seconds last_start = 0;
  double construct_s = 0.0;  ///< Server(options, seed) alone
};

serve::ServerOptions query_options(std::size_t seed_size) {
  serve::ServerOptions options;
  options.ingest_threads = 1;
  // Retention keeps 3/4 of the seed, so every seal compacts; seals come
  // every ~10% of the sealed size rather than the default 50%, so a run
  // sees several.
  options.epoch.max_sealed_events = seed_size * 3 / 4;
  options.epoch.rebuild_fraction = 0.1;
  return options;
}

trace::FailureDataset query_seed(std::uint64_t seed, bool tiny) {
  synth::ScenarioConfig cfg = synth::lanl_scenario(seed);
  for (synth::SystemScenario& s : cfg.systems) {
    s.failures_per_year *= tiny ? 1.0 : 39.0;
  }
  return synth::TraceGenerator(trace::SystemCatalog::lanl(), cfg).generate();
}

QueryServer start_query_server(std::uint64_t seed, bool tiny) {
  QueryServer q;
  trace::FailureDataset ds = query_seed(seed, tiny);
  q.seed_size = ds.size();
  const trace::ColumnsView cols = ds.records();
  for (const int system : cols.system_ids()) ++q.seed_per_system[system];
  q.last_start = cols.starts()[cols.size() - 1];
  const auto t = Clock::now();
  q.server = std::make_unique<serve::Server>(query_options(q.seed_size),
                                             std::move(ds));
  q.construct_s = seconds_since(t);
  q.server->start();
  return q;
}

/// One sampled event the reader waits to see in a /report.
struct Sample {
  std::uint64_t events_total = 0;  ///< the system's count including it
  Clock::time_point sent;
};

/// The query phase of the traced live_ingest run (see the file comment).
/// Returns the HTTP request timeouts + truncated responses it saw.
std::uint64_t run_query_phase(const Options& options, Tracer& tracer,
                              Outcome& outcome) {
  const double rate = options.tiny ? 5'000.0 : 40'000.0;  // events/s
  const double period_s = 0.002;  // one send batch every 2 ms
  // Warm-up lasts until the first retention seal has compacted the seed
  // (so every measured /report pays for the ledger), and at least 1 s.
  const double warmup_min_s = 1.0;
  const double warmup_max_s = 10.0;
  const auto batch = static_cast<std::size_t>(rate * period_s);
  // Per-layer figures only, so a shorter window keeps the traced run short.
  const double seconds = std::min(options.seconds, 10.0);

  // The seeded server, and the write stream continuing its trace clock.
  const QueryServer q = start_query_server(options.seed, options.tiny);
  serve::Server& server = *q.server;
  const Stream writes = make_stream(
      options.seed, static_cast<std::size_t>(
                        rate * (warmup_max_s + seconds + 5.0)),
      1, q.last_start, 0.0);

  // Line offsets, and each event's running count within its system
  // (seed included): the events_total a /report must reach to include it.
  std::vector<std::size_t> line_end;
  line_end.reserve(writes.valid.size());
  for (std::size_t at = writes.text[0].find('\n'); at != std::string::npos;
       at = writes.text[0].find('\n', at + 1)) {
    line_end.push_back(at + 1);
  }
  std::vector<std::uint64_t> total_after;
  total_after.reserve(writes.valid.size());
  {
    std::map<int, std::uint64_t> running = q.seed_per_system;
    for (const trace::FailureRecord& r : writes.valid) {
      total_after.push_back(++running[r.system_id]);
    }
  }

  // Open-loop sender: batch k is due at start + k * period.
  Socket ingest(server.ingest_port());
  std::mutex pending_mutex;
  std::map<int, std::deque<Sample>> pending;  // guarded by pending_mutex
  std::atomic<bool> send_failed{false};
  std::atomic<std::uint64_t> sent{0};
  std::vector<double> late_ms;  // written by the sender, read after join
  const auto start = Clock::now();
  // Set by the reader when the warm-up ends; read by the sender.
  std::atomic<Clock::rep> measure_from_rep{Clock::time_point::max()
                                               .time_since_epoch()
                                               .count()};
  const auto measure_from = [&] {
    return Clock::time_point(Clock::duration(measure_from_rep.load()));
  };
  std::jthread sender([&](const std::stop_token& stop) {
    std::size_t next = 0;
    for (std::size_t k = 0; next < line_end.size() && !stop.stop_requested();
         ++k) {
      const auto due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(period_s * double(k)));
      std::this_thread::sleep_until(due);
      const std::size_t last = std::min(next + batch, line_end.size()) - 1;
      const std::size_t from = next == 0 ? 0 : line_end[next - 1];
      if (!ingest.send_all(std::string_view(writes.text[0])
                               .substr(from, line_end[last] - from))) {
        send_failed = true;
        break;
      }
      const auto done = Clock::now();
      sent = last + 1;
      if (due >= measure_from()) {
        late_ms.push_back(
            std::chrono::duration<double, std::milli>(done - due).count());
      }
      {
        const std::lock_guard<std::mutex> lock(pending_mutex);
        pending[writes.valid[last].system_id].push_back(
            {total_after[last], done});
      }
      next = last + 1;
    }
  });

  // Closed-loop reader on this thread.
  std::vector<std::pair<int, int>> combos;
  for (const auto& [system, count] : q.seed_per_system) {
    for (const int hours : kWindowHours) combos.emplace_back(system, hours);
  }
  std::map<int, std::uint64_t> last_total;
  std::vector<double> report_ms;
  std::vector<double> fresh_ms;
  std::uint64_t requests = 0;
  std::uint64_t bad = 0;
  bool measuring = false;
  Clock::time_point measure_start = Clock::time_point::max();
  for (std::size_t i = 0;
       !measuring || seconds_since(measure_start) < seconds; ++i) {
    if (!measuring) {
      const double warm = seconds_since(start);
      if ((warm >= warmup_min_s &&
           server.dataset().compacted_events() > 0) ||
          warm >= warmup_max_s) {
        measuring = true;
        measure_start = Clock::now();
        measure_from_rep = measure_start.time_since_epoch().count();
      }
    }
    const bool stats = i % kStatsEvery == kStatsEvery - 1;
    const auto [system, hours] = combos[(i - i / kStatsEvery) % combos.size()];
    const std::string target =
        stats ? "/stats"
              : "/report?system=" + std::to_string(system) +
                    "&window_hours=" + std::to_string(hours);
    const auto t = Clock::now();
    const HttpResponse resp = http_get(server.http_port(), target);
    const auto done = Clock::now();
    ++requests;
    const bool ok = resp.status == 200 && JsonChecker::valid(resp.body);
    if (!ok) {
      ++bad;
      continue;
    }
    if (stats) continue;
    if (measuring) {
      report_ms.push_back(
          std::chrono::duration<double, std::milli>(done - t).count());
    }
    const std::vector<double> totals = json_numbers(resp.body, "events_total");
    const auto total =
        static_cast<std::uint64_t>(totals.empty() ? 0.0 : totals[0]);
    if (totals.empty() || total < last_total[system]) {
      ++bad;
      continue;
    }
    last_total[system] = total;
    const std::lock_guard<std::mutex> lock(pending_mutex);
    std::deque<Sample>& queue = pending[system];
    while (!queue.empty() && queue.front().events_total <= total) {
      if (queue.front().sent >= measure_start) {
        fresh_ms.push_back(std::chrono::duration<double, std::milli>(
                               done - queue.front().sent)
                               .count());
      }
      queue.pop_front();
    }
  }
  const double measured_s = seconds_since(measure_start);
  sender.request_stop();
  sender.join();

  // Drain: the server must account for every event sent.
  const std::uint64_t sent_total = sent;
  const auto drain_start = Clock::now();
  while (server.events_ingested() < sent_total &&
         seconds_since(drain_start) < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const HttpResponse final_stats = http_get(server.http_port(), "/stats");
  server.stop();
  server.wait();
  const std::uint64_t accepted = server.events_ingested();
  const trace::LiveDataset& live = server.dataset();

  outcome.attempted += requests + sent_total;
  outcome.failed += bad;
  if (bad > 0) {
    outcome.mismatches.push_back(std::to_string(bad) +
                                 " responses were not 200 + JSON, or an "
                                 "events_total went backwards");
  }
  outcome.check(!send_failed, "the open-loop sender could not write");
  outcome.check(final_stats.status == 200 &&
                    JsonChecker::valid(final_stats.body),
                "final /stats is not 200 + JSON");
  if (accepted != sent_total) {
    outcome.failed += accepted > sent_total ? accepted - sent_total
                                            : sent_total - accepted;
    outcome.mismatches.push_back("accepted " + std::to_string(accepted) +
                                 " of " + std::to_string(sent_total) +
                                 " events sent");
  }
  outcome.check(live.sealed_size() + live.tail_size() +
                        live.compacted_events() ==
                    q.seed_size + accepted,
                "sealed + tails + compacted != seed + accepted");
  outcome.check(!report_ms.empty(), "no /report completed in the window");

  std::cerr << "query phase: " << report_ms.size() << " reports in "
            << measured_s << " s, p50 " << median(report_ms) << " ms, "
            << fresh_ms.size() << " freshness samples, " << live.epoch()
            << " epochs, " << live.compacted_events() << " compacted\n";

  outcome.add("serve.seed_s", q.construct_s, "s");
  outcome.add("serve.report_p99_ms", quantile(report_ms, 0.99), "ms");
  outcome.add("serve.freshness_p50_ms", median(fresh_ms), "ms");
  outcome.add("serve.freshness_p99_ms", quantile(fresh_ms, 0.99), "ms");
  outcome.add("serve.ingest_late_p99_ms", quantile(late_ms, 0.99), "ms");

  // Replay: the seeded dataset and analytics as the server builds them,
  // then the events the sender got out, through the same calls.
  std::vector<std::string> sent_text = {
      writes.text[0].substr(0, sent == 0 ? 0 : line_end[sent - 1])};
  const serve::ServerOptions server_options = query_options(q.seed_size);
  serve::LiveAnalytics::Options analytics_options;
  analytics_options.bucket_seconds = server_options.bucket_seconds;
  analytics_options.max_buckets = server_options.max_buckets;
  trace::LiveDataset replay_live(query_seed(options.seed, options.tiny),
                                 server_options.epoch);
  serve::LiveAnalytics analytics(analytics_options);
  for (const trace::FailureRecord& r : replay_live.snapshot()->records()) {
    analytics.observe(r);
  }
  (void)replay(sent_text, replay_live, analytics, true, tracer);
  add_report_metrics(outcome, replay_live, analytics, tracer);
  return server.http_request_timeouts() + server.http_truncated_responses();
}

}  // namespace

void measure_live_layers(const Options& options, Tracer& tracer,
                         Outcome& outcome) {
  // 1M events (not the 2M of the planned live workload) keep the traced
  // batch_pipeline run well inside its time limit.
  const std::size_t events = options.tiny ? 40'000 : 1'000'000;
  const Seconds epoch0 = to_epoch(2006, 1, 1);
  set_parallelism(4);

  const Stream stream =
      make_stream(options.seed, events, 2, epoch0, kMalformedRate);
  const trace::FailureDataset reference{
      std::vector<trace::FailureRecord>(stream.valid)};

  // Warm-up: a round over a separate stream an eighth the size. Between
  // rounds, malloc_trim hands the freed heap back so every round starts
  // from the same memory state.
  {
    const Stream warm = make_stream(options.seed + 1, events / 8, 2, epoch0,
                                    kMalformedRate);
    (void)ingest_round(warm, nullptr, 1, false);
  }
  ::malloc_trim(0);

  // One round into one ingest shard, one into two (the cross-shard
  // analytics lock), each checked.
  const auto checked_round = [&](std::size_t shards, bool corrupt) {
    const std::int64_t span_start = now_ns();
    const Round r = ingest_round(stream, &reference, shards, corrupt);
    tracer.record("serve.ingest_round", shards, span_start, now_ns());
    ::malloc_trim(0);
    outcome.attempted += stream.valid.size();
    const std::string tag = std::to_string(shards) + "-shard round: ";
    if (r.accepted != stream.valid.size()) {
      outcome.failed += stream.valid.size() > r.accepted
                            ? stream.valid.size() - r.accepted
                            : r.accepted - stream.valid.size();
      outcome.mismatches.push_back(
          tag + "accepted " + std::to_string(r.accepted) + " of " +
          std::to_string(stream.valid.size()) + " valid events sent");
    }
    outcome.check(r.rejected == stream.malformed,
                  tag + "rejected " + std::to_string(r.rejected) + " of " +
                      std::to_string(stream.malformed) + " malformed lines");
    outcome.check(r.identical, tag +
                                   "sealed snapshot is not column-identical "
                                   "to a from-scratch dataset");
    return r;
  };
  const Round single = checked_round(1, options.corrupt);
  const Round sharded = checked_round(2, false);
  std::cerr << "live layers: " << stream.valid.size() << " events + "
            << stream.malformed << " malformed; 1 shard "
            << static_cast<double>(single.accepted) / single.wall_s
            << " events/s, 2 shards "
            << static_cast<double>(sharded.accepted) / sharded.wall_s
            << " events/s\n";

  outcome.add("serve.events_per_s",
              static_cast<double>(single.accepted) / single.wall_s, "1/s");
  outcome.add("serve.cpu_us_per_event",
              single.cpu_s * 1e6 /
                  static_cast<double>(
                      std::max<std::uint64_t>(single.accepted, 1)),
              "us");
  outcome.add("serve.sharded_events_per_s",
              static_cast<double>(sharded.accepted) / sharded.wall_s, "1/s");
  outcome.add("serve.shard_skew", sharded.skew, "ratio");
  outcome.add("serve.events_rejected", static_cast<double>(single.rejected),
              "count");
  outcome.add("trace.epochs", static_cast<double>(single.epochs), "count");

  ReplayStats timed;
  ReplayStats bare;
  {
    trace::LiveDataset live;
    serve::LiveAnalytics analytics;
    timed = replay(stream.text, live, analytics, true, tracer);
    outcome.check(columns_equal(*live.snapshot(), reference),
                  "replayed snapshot is not column-identical");
  }
  {
    trace::LiveDataset live;
    serve::LiveAnalytics analytics;
    bare = replay(stream.text, live, analytics, false, tracer);
  }
  add_replay_metrics(outcome, timed, bare);

  const std::uint64_t http_failures = run_query_phase(options, tracer, outcome);
  outcome.add("serve.http_failures",
              static_cast<double>(single.http_failures +
                                  sharded.http_failures + http_failures),
              "count");
}

}  // namespace perfbench
