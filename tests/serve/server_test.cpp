// End-to-end tests of the streaming daemon over real sockets: ephemeral
// ports, a raw line-protocol client, HTTP readers querying *during*
// ingest, reject-and-count on malformed lines, and both shutdown paths.
#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"
#include "dist/suffstats.hpp"
#include "dist/window.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "serve/analytics.hpp"
#include "serve/replay.hpp"
#include "trace/adapters/adapter.hpp"
#include "trace/io.hpp"
#include "trace/dataset.hpp"
#include "trace/record.hpp"
#include "trace/types.hpp"

namespace hpcfail::serve {
namespace {

trace::FailureRecord rec(int system, int node, Seconds start,
                         Seconds duration) {
  trace::FailureRecord r;
  r.system_id = system;
  r.node_id = node;
  r.start = start;
  r.end = start + duration;
  r.cause = trace::RootCause::hardware;
  r.detail = trace::DetailCause::memory_dimm;
  return r;
}

std::string csv_line(const trace::FailureRecord& r) {
  return std::to_string(r.system_id) + "," + std::to_string(r.node_id) +
         "," + format_timestamp(r.start) + "," + format_timestamp(r.end) +
         ",compute,hardware,memory_dimm\n";
}

const Seconds t0 = to_epoch(2004, 6, 1);

// --- LiveAnalytics unit coverage -----------------------------------------

TEST(LiveAnalytics, WindowedReportMatchesHandComputation) {
  LiveAnalytics analytics;
  // Three failures on one node, one hour apart, 30 minutes down each.
  analytics.observe(rec(3, 1, t0, 1800));
  analytics.observe(rec(3, 1, t0 + 3600, 1800));
  analytics.observe(rec(3, 1, t0 + 7200, 1800));
  EXPECT_EQ(analytics.events_observed(), 3u);
  EXPECT_EQ(analytics.latest_at(), t0 + 7200);

  const WindowReport report =
      analytics.report(3, 24 * kSecondsPerHour);
  EXPECT_EQ(report.events_total, 3u);
  EXPECT_EQ(report.repair_minutes.n, 3u);
  EXPECT_DOUBLE_EQ(report.repair_minutes.mean(), 30.0);
  EXPECT_EQ(report.node_gaps_seconds.n, 2u);
  EXPECT_DOUBLE_EQ(report.node_gaps_seconds.mean(), 3600.0);
  EXPECT_EQ(report.system_gaps_seconds.n, 2u);
  ASSERT_EQ(report.by_cause.size(), 1u);
  EXPECT_EQ(report.by_cause[0].cause, trace::RootCause::hardware);
  EXPECT_EQ(report.by_cause[0].repair_minutes.n, 3u);
}

TEST(LiveAnalytics, WindowExcludesOldEvents) {
  LiveAnalytics analytics;
  analytics.observe(rec(1, 0, t0, 600));
  analytics.observe(rec(1, 0, t0 + 40 * kSecondsPerHour, 600));
  // A 2-hour window anchored at the latest event excludes the first.
  const WindowReport narrow = analytics.report(1, 2 * kSecondsPerHour);
  EXPECT_EQ(narrow.repair_minutes.n, 1u);
  const WindowReport wide = analytics.report(1, 100 * kSecondsPerHour);
  EXPECT_EQ(wide.repair_minutes.n, 2u);
}

TEST(LiveAnalytics, FirstEventSetsTheClockBeforeTheEpoch) {
  // Regression: the clock started at 0 and only moved forward, so a
  // trace lying wholly before 1970 reported at the epoch, with every
  // event outside its window.
  LiveAnalytics analytics;
  const Seconds march_1965 = to_epoch(1965, 3, 1);
  for (int i = 0; i < 3; ++i) {
    analytics.observe(rec(20, i, march_1965 + i * kSecondsPerHour, 1800));
  }
  const Seconds last = march_1965 + 2 * kSecondsPerHour;
  EXPECT_EQ(analytics.latest_at(), last);
  const WindowReport day = analytics.report(20, 24 * kSecondsPerHour);
  EXPECT_EQ(day.now, last);
  EXPECT_EQ(day.repair_minutes.n, 3u);
  // The widest window /report accepts reaches past the lowest Seconds.
  const WindowReport widest =
      analytics.report(20, std::numeric_limits<Seconds>::max());
  EXPECT_EQ(widest.repair_minutes.n, 3u);
}

TEST(LiveAnalytics, GapsWiderThanTheSignedRangeAreExact) {
  // `hpcfail serve --format lu` takes raw epoch seconds: one node can
  // fail at -9e18 and then at +9e18, 1.8e19 s later.
  constexpr Seconds kFar = 9'000'000'000'000'000'000;
  LiveAnalytics analytics;
  analytics.observe(rec(1, 0, -kFar, 0));
  analytics.observe(rec(1, 0, kFar, 0));
  const WindowReport report = analytics.report(1, kSecondsPerHour);
  EXPECT_EQ(report.now, kFar);
  EXPECT_EQ(report.node_gaps_seconds.n, 1u);
  EXPECT_EQ(report.node_gaps_seconds.sum_raw, 1.8e19);
  EXPECT_EQ(report.system_gaps_seconds.n, 1u);
  EXPECT_EQ(report.system_gaps_seconds.sum_raw, 1.8e19);
}

TEST(LiveAnalytics, UnknownSystemYieldsEmptyReport) {
  LiveAnalytics analytics;
  analytics.observe(rec(1, 0, t0, 600));
  const WindowReport report = analytics.report(42, kSecondsPerHour);
  EXPECT_EQ(report.events_total, 0u);
  EXPECT_EQ(report.repair_minutes.n, 0u);
  EXPECT_TRUE(report.repair_fits.empty());
}

TEST(LiveAnalytics, ReportJsonHasSchemaAndSections) {
  LiveAnalytics analytics;
  for (int i = 0; i < 40; ++i) {
    analytics.observe(rec(2, i % 4, t0 + i * 900, 60 + i * 30));
  }
  const std::string json =
      to_json(analytics.report(2, 24 * kSecondsPerHour));
  for (const char* needle :
       {"\"schema\":\"hpcfail.serve.report\"", "\"version\":1",
        "\"system\":2", "\"repair_minutes\"", "\"node_gaps_seconds\"",
        "\"system_gaps_seconds\"", "\"by_cause\"", "\"repair_fits\"",
        "\"node_gap_fits\"", "\"mean\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n"
                                                    << json;
  }
}

// --- exact /report oracle --------------------------------------------------

void expect_same_bits(const dist::SuffStats& got,
                      const dist::SuffStats& want) {
  EXPECT_EQ(got.n, want.n);
  EXPECT_EQ(got.sum_raw, want.sum_raw);
  EXPECT_EQ(got.shift, want.shift);
  EXPECT_EQ(got.mean_dev, want.mean_dev);
  EXPECT_EQ(got.m2, want.m2);
  EXPECT_EQ(got.log_shift, want.log_shift);
  EXPECT_EQ(got.log_mean_dev, want.log_mean_dev);
  EXPECT_EQ(got.log_m2, want.log_m2);
  EXPECT_EQ(got.min, want.min);
  EXPECT_EQ(got.max, want.max);
}

void expect_same_fits(const dist::FitReport& got,
                      const dist::FitReport& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].family, want[i].family);
    EXPECT_EQ(got[i].nll, want[i].nll);
    EXPECT_EQ(got[i].aic, want[i].aic);
    EXPECT_EQ(got[i].model->describe(), want[i].model->describe());
  }
}

/// The fields a report takes from repair windows: they depend only on
/// which events arrived.
void expect_same_repair_fields(const WindowReport& got,
                               const WindowReport& want) {
  EXPECT_EQ(got.events_total, want.events_total);
  EXPECT_EQ(got.now, want.now);
  expect_same_bits(got.repair_minutes, want.repair_minutes);
  ASSERT_EQ(got.by_cause.size(), want.by_cause.size());
  for (std::size_t i = 0; i < got.by_cause.size(); ++i) {
    EXPECT_EQ(got.by_cause[i].cause, want.by_cause[i].cause);
    expect_same_bits(got.by_cause[i].repair_minutes,
                     want.by_cause[i].repair_minutes);
  }
  expect_same_fits(got.repair_fits, want.repair_fits);
}

/// expect_same_repair_fields plus the node-gap fields, which also depend
/// on each node's own arrival order.
void expect_same_node_fields(const WindowReport& got,
                             const WindowReport& want) {
  expect_same_repair_fields(got, want);
  expect_same_bits(got.node_gaps_seconds, want.node_gaps_seconds);
  expect_same_fits(got.node_gap_fits, want.node_gap_fits);
}

/// /report recomputed from the raw events, in the order they arrived.
/// Node gaps follow each node's arrivals and system gaps each system's.
/// A window keeps the entries whose bucket lies at or above the compaction
/// horizon's and at most max_buckets below its newest entry's; its
/// statistics fold each bucket's entries sorted by (start, node, value)
/// and merge the buckets oldest first, and a report merges causes in
/// ascending order.
class ReportOracle {
 public:
  /// `arrivals` observed in order, with compact_before(horizon) called
  /// before arrival `compact_at` (after the last when it equals their
  /// count; never when it exceeds it).
  ReportOracle(const std::vector<trace::FailureRecord>& arrivals,
               std::size_t compact_at, Seconds horizon,
               std::size_t max_buckets)
      : horizon_index_(index(horizon)),
        max_buckets_(static_cast<Seconds>(max_buckets)),
        compacted_(compact_at <= arrivals.size()) {
    std::map<std::pair<int, int>, Seconds> last_node;
    std::map<int, Seconds> last_system;
    std::map<std::pair<int, trace::RootCause>, Seconds> newest_repair;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const trace::FailureRecord& r = arrivals[i];
      now_ = i == 0 ? r.start : std::max(now_, r.start);
      ++events_[r.system_id];
      const std::pair key{r.system_id, r.cause};
      repair_[key].push_back({r.start, r.node_id, r.downtime_minutes()});
      // A repair entry is refused below its window's floor at arrival.
      Seconds floor = i >= compact_at ? horizon_index_
                                      : std::numeric_limits<Seconds>::min();
      const auto newest = newest_repair.find(key);
      if (newest != newest_repair.end()) {
        floor = std::max(floor, newest->second - max_buckets_);
      }
      if (index(r.start) < floor) {
        ++dropped_;
      } else if (newest == newest_repair.end()) {
        newest_repair.emplace(key, index(r.start));
      } else {
        newest->second = std::max(newest->second, index(r.start));
      }
      const auto gap = [&](auto& last, const auto& last_key, Entries& into) {
        const auto [it, first] = last.try_emplace(last_key, r.start);
        if (first || r.start < it->second) return;
        into.push_back(
            {r.start, r.node_id, static_cast<double>(r.start - it->second)});
        it->second = r.start;
      };
      gap(last_node, std::pair{r.system_id, r.node_id}, node_gaps_[key]);
      gap(last_system, r.system_id, system_gaps_[r.system_id]);
    }
  }

  WindowReport report(int system, Seconds window) const {
    WindowReport out;
    out.system_id = system;
    out.now = now_;
    out.window = std::min(window > 0 ? window : 24 * kSecondsPerHour,
                          max_buckets_ * kSecondsPerHour);
    out.events_total = events_.count(system) ? events_.at(system) : 0;
    out.node_gaps_seconds.floor_at = 1.0;
    out.system_gaps_seconds = fold(system_gaps_, system, out.window, 1.0);
    for (const trace::RootCause cause : trace::kAllRootCauses) {
      const std::pair key{system, cause};
      const dist::SuffStats repair = fold(repair_, key, out.window, 1e-9);
      out.repair_minutes.merge(repair);
      out.node_gaps_seconds.merge(fold(node_gaps_, key, out.window, 1.0));
      if (repair.n > 0) out.by_cause.push_back({cause, repair});
    }
    try {
      out.repair_fits = dist::fit_report_from_stats(out.repair_minutes);
    } catch (const Error&) {
    }
    try {
      out.node_gap_fits = dist::fit_report_from_stats(out.node_gaps_seconds);
    } catch (const Error&) {
    }
    return out;
  }

  std::uint64_t dropped() const { return dropped_; }

 private:
  using Entries = std::vector<std::tuple<Seconds, int, double>>;

  static Seconds index(Seconds at) { return at / kSecondsPerHour; }

  template <typename Key>
  dist::SuffStats fold(const std::map<Key, Entries>& windows, const Key& key,
                       Seconds window, double floor_at) const {
    dist::SuffStats merged;
    merged.floor_at = floor_at;
    const auto it = windows.find(key);
    if (it == windows.end() || it->second.empty()) return merged;
    Entries entries = it->second;
    std::sort(entries.begin(), entries.end());
    Seconds floor = index(std::get<0>(entries.back())) - max_buckets_;
    if (compacted_) floor = std::max(floor, horizon_index_);
    floor = std::max(floor, index(now_ - window));
    for (std::size_t i = 0; i < entries.size();) {
      const Seconds bucket = index(std::get<0>(entries[i]));
      dist::SuffStats one;
      one.floor_at = floor_at;
      for (; i < entries.size() && index(std::get<0>(entries[i])) == bucket;
           ++i) {
        one.add(std::get<2>(entries[i]));
      }
      if (bucket >= floor && bucket <= index(now_)) merged.merge(one);
    }
    return merged;
  }

  Seconds horizon_index_;
  Seconds max_buckets_;
  bool compacted_;
  Seconds now_ = 0;
  std::uint64_t dropped_ = 0;
  std::map<int, std::uint64_t> events_;
  std::map<std::pair<int, trace::RootCause>, Entries> repair_;
  std::map<std::pair<int, trace::RootCause>, Entries> node_gaps_;
  std::map<int, Entries> system_gaps_;
};

/// A random interleaving of `stream` that keeps each (system, node)'s
/// events in their order: shuffle whose turn each slot is, then fill each
/// slot with that node's next event.
std::vector<trace::FailureRecord> interleave(
    const std::vector<trace::FailureRecord>& stream, std::mt19937& rng) {
  std::map<std::pair<int, int>, std::vector<trace::FailureRecord>> queues;
  std::vector<std::pair<int, int>> turns;
  for (const trace::FailureRecord& r : stream) {
    queues[{r.system_id, r.node_id}].push_back(r);
    turns.push_back({r.system_id, r.node_id});
  }
  std::shuffle(turns.begin(), turns.end(), rng);
  std::map<std::pair<int, int>, std::size_t> next;
  std::vector<trace::FailureRecord> out;
  for (const auto& turn : turns) out.push_back(queues[turn][next[turn]++]);
  return out;
}

// report() must equal, bit for bit, ReportOracle's recomputation from the
// raw events, taken right after a mid-stream compaction and after the last
// event, over 9 arrival orders of one stream: the stream's own (with late
// arrivals), 8 cross-node interleavings that keep each node's order, and a
// full shuffle. After the last event, the node-scoped fields agree across
// the interleavings and the repair fields across all 10 orders. Starts
// are 1-60 s apart, so each (system, cause, hour) bucket holds several
// entries whose arrival order differs between the orders; max_buckets
// spans 6 of the stream's ~34 hours.
TEST(LiveAnalytics, ReportMatchesARecomputationFromTheRawEvents) {
  constexpr trace::DetailCause kDetailOf[] = {
      trace::DetailCause::memory_dimm, trace::DetailCause::operating_system,
      trace::DetailCause::network_switch, trace::DetailCause::power_outage,
      trace::DetailCause::operator_error, trace::DetailCause::undetermined};
  const std::vector<int> systems = {2, 5, 11};
  std::mt19937 rng(2006);
  std::uniform_int_distribution<std::size_t> pick_system(0, 2);
  std::uniform_int_distribution<int> pick_node(0, 3);
  std::uniform_int_distribution<std::size_t> pick_cause(0, 5);
  std::uniform_int_distribution<Seconds> step(1, 60);
  std::uniform_int_distribution<Seconds> repair(0, 6 * kSecondsPerHour);
  std::uniform_int_distribution<Seconds> lateness(1, 8 * kSecondsPerHour);
  std::uniform_int_distribution<int> late(0, 19);
  std::vector<trace::FailureRecord> stream;
  Seconds at = t0;
  for (int i = 0; i < 4000; ++i) {
    at += step(rng);
    trace::FailureRecord r;
    r.system_id = systems[pick_system(rng)];
    r.node_id = pick_node(rng);
    const std::size_t c = pick_cause(rng);
    r.cause = trace::kAllRootCauses[c];
    r.detail = kDetailOf[c];
    r.start = late(rng) == 0 ? at - lateness(rng) : at;
    r.end = r.start + repair(rng);
    stream.push_back(r);
  }
  const std::size_t compact_at = stream.size() / 2;
  Seconds horizon = 0;
  for (std::size_t i = 0; i < compact_at; ++i) {
    horizon = std::max(horizon, stream[i].start);
  }
  horizon -= 3 * kSecondsPerHour;  // inside the span at the compaction

  LiveAnalytics::Options options;
  options.max_buckets = 6;
  const Seconds span = 6 * kSecondsPerHour;
  ASSERT_GT(stream.back().start - stream.front().start, 5 * span);

  std::vector<std::vector<trace::FailureRecord>> orders = {stream};
  for (int k = 0; k < 8; ++k) orders.push_back(interleave(stream, rng));
  orders.push_back(stream);
  std::shuffle(orders.back().begin(), orders.back().end(), rng);

  const std::vector<Seconds> windows = {0, 2 * kSecondsPerHour, span,
                                        100000 * kSecondsPerHour};
  std::map<std::pair<int, Seconds>, WindowReport> first_order;
  std::uint64_t most_dropped = 0;
  std::set<trace::RootCause> causes_seen;
  for (std::size_t o = 0; o < orders.size(); ++o) {
    const std::vector<trace::FailureRecord>& arrivals = orders[o];
    LiveAnalytics analytics(options);
    std::size_t observed = 0;
    // A report right after the compaction, and one after the last event.
    for (const std::size_t checkpoint : {compact_at, arrivals.size()}) {
      for (; observed < checkpoint; ++observed) {
        analytics.observe(arrivals[observed]);
      }
      if (checkpoint == compact_at) analytics.compact_before(horizon);
      const bool last = checkpoint == arrivals.size();
      const ReportOracle oracle(
          std::vector<trace::FailureRecord>(arrivals.begin(),
                                            arrivals.begin() + checkpoint),
          compact_at, horizon, options.max_buckets);
      EXPECT_EQ(analytics.dropped_events(), oracle.dropped());
      for (const int system : systems) {
        for (const Seconds window : windows) {
          SCOPED_TRACE("order " + std::to_string(o) + " after " +
                       std::to_string(checkpoint) + " events, system " +
                       std::to_string(system) + " window " +
                       std::to_string(window));
          const WindowReport got = analytics.report(system, window);
          const WindowReport want = oracle.report(system, window);
          EXPECT_EQ(got.system_id, system);
          EXPECT_EQ(got.window, want.window);
          expect_same_node_fields(got, want);
          expect_same_bits(got.system_gaps_seconds, want.system_gaps_seconds);
          if (!last) continue;
          const auto [first, inserted] =
              first_order.try_emplace({system, window}, got);
          if (o + 1 == orders.size()) {
            expect_same_repair_fields(got, first->second);
          } else if (!inserted) {
            expect_same_node_fields(got, first->second);
          }
          for (const CauseWindow& slice : got.by_cause) {
            causes_seen.insert(slice.cause);
          }
        }
      }
    }
    most_dropped = std::max(most_dropped, analytics.dropped_events());
  }
  EXPECT_GT(most_dropped, 0u);  // some late arrivals fell below a floor
  EXPECT_EQ(causes_seen.size(), trace::kAllRootCauses.size());
}

TEST(LiveAnalytics, CountsTheEventsNoRepairWindowTook) {
  LiveAnalytics::Options options;
  options.max_buckets = 24;
  LiveAnalytics analytics(options);
  for (int i = 0; i < 100; ++i) {
    analytics.observe(rec(3, i % 4, t0 + i * 1800, 600));
  }
  EXPECT_EQ(analytics.dropped_events(), 0u);  // in order: nothing refused
  // Older than the span behind the window's newest entry.
  analytics.observe(rec(3, 9, t0, 600));
  EXPECT_EQ(analytics.dropped_events(), 1u);
  // Below the retention horizon, in a (system, cause) first seen after it.
  analytics.compact_before(t0 + 40 * kSecondsPerHour);
  trace::FailureRecord software = rec(4, 0, t0 + 39 * kSecondsPerHour, 60);
  software.cause = trace::RootCause::software;
  software.detail = trace::DetailCause::operating_system;
  analytics.observe(software);
  EXPECT_EQ(analytics.dropped_events(), 2u);
  EXPECT_EQ(analytics.report(4, 0).repair_minutes.n, 0u);
  EXPECT_EQ(analytics.report(4, 0).events_total, 1u);
  // The window a report covers is clamped to the span.
  EXPECT_EQ(analytics.report(3, 1000 * kSecondsPerHour).window,
            24 * kSecondsPerHour);
}

// --- socket helpers -------------------------------------------------------

/// Connects `fd` (a fresh socket unless given) to a local port.
int connect_to(int port, int fd = ::socket(AF_INET, SOCK_STREAM, 0)) {
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  return fd;
}

void send_all(int fd, const std::string& text) {
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n =
        ::send(fd, text.data() + sent, text.size() - sent, 0);
    ASSERT_GT(n, 0);
    sent += static_cast<std::size_t>(n);
  }
}

struct HttpResponse {
  int status = 0;
  std::string body;
};

/// Reads a response until the server closes, then closes `fd`.
HttpResponse read_response(int fd) {
  std::string raw;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    raw.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  HttpResponse response;
  const std::size_t space = raw.find(' ');
  if (space != std::string::npos) {
    response.status = std::stoi(raw.substr(space + 1, 3));
  }
  const std::size_t header_end = raw.find("\r\n\r\n");
  if (header_end != std::string::npos) {
    response.body = raw.substr(header_end + 4);
  }
  return response;
}

HttpResponse http_get(int port, const std::string& target) {
  const int fd = connect_to(port);
  send_all(fd, "GET " + target + " HTTP/1.0\r\n\r\n");
  return read_response(fd);
}

/// The unsigned number after the first `"key":` at or after `from`.
std::uint64_t json_number(const std::string& body, const std::string& key,
                          std::size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = body.find(needle, from);
  if (at == std::string::npos) {
    ADD_FAILURE() << "no " << needle << " in " << body;
    return 0;
  }
  return std::stoull(body.substr(at + needle.size()));
}

void wait_until_ingested(const Server& server, std::uint64_t count) {
  for (int i = 0; i < 500 && server.events_ingested() < count; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_GE(server.events_ingested(), count);
}

// --- option validation ----------------------------------------------------

TEST(Server, RejectsInvalidOptions) {
  {
    ServerOptions opts;
    opts.ingest_port = 70000;
    EXPECT_THROW(Server s(opts), ValidationError);
  }
  {
    ServerOptions opts;
    opts.host = "not an address";
    EXPECT_THROW(Server s(opts), ValidationError);
  }
  {
    ServerOptions opts;
    opts.bucket_seconds = 0;
    EXPECT_THROW(Server s(opts), ValidationError);
  }
  {
    ServerOptions opts;
    opts.window_seconds = -5;
    EXPECT_THROW(Server s(opts), ValidationError);
  }
  {
    ServerOptions opts;
    opts.ingest_threads = 0;
    EXPECT_THROW(Server s(opts), ValidationError);
  }
  {
    ServerOptions opts;
    opts.http_request_deadline_ms = 0;
    EXPECT_THROW(Server s(opts), ValidationError);
  }
}

// --- end-to-end -----------------------------------------------------------

TEST(Server, IngestsStreamRejectsMalformedAndServesReaders) {
  ServerOptions opts;
  opts.epoch.min_rebuild_tail = 64;  // exercise several epochs
  Server server(opts);
  server.start();
  ASSERT_GT(server.ingest_port(), 0);
  ASSERT_GT(server.http_port(), 0);

  EXPECT_EQ(http_get(server.http_port(), "/healthz").body, "ok\n");

  const int client = connect_to(server.ingest_port());
  std::string payload;
  const std::size_t kEvents = 500;
  for (std::size_t i = 0; i < kEvents; ++i) {
    payload += csv_line(rec(7, static_cast<int>(i % 8),
                            t0 + static_cast<Seconds>(i) * 120, 300));
  }
  payload += "this is not an event\n";
  send_all(client, payload);
  wait_until_ingested(server, kEvents);
  for (int i = 0; i < 500 && server.events_rejected() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.events_rejected(), 1u);

  // Readers are served while the connection is still open (no rebuild
  // or drain-to-idle needed first).
  const HttpResponse stats = http_get(server.http_port(), "/stats");
  EXPECT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"events_ingested\":500"), std::string::npos)
      << stats.body;
  EXPECT_NE(stats.body.find("\"events_rejected\":1"), std::string::npos);

  const HttpResponse report =
      http_get(server.http_port(), "/report?system=7&window_hours=48");
  EXPECT_EQ(report.status, 200);
  EXPECT_NE(report.body.find("\"schema\":\"hpcfail.serve.report\""),
            std::string::npos);
  EXPECT_NE(report.body.find("\"repair_fits\""), std::string::npos);

  EXPECT_EQ(http_get(server.http_port(), "/report?system=999").status,
            404);
  EXPECT_EQ(http_get(server.http_port(), "/report?system=oops").status,
            400);
  EXPECT_EQ(http_get(server.http_port(), "/nope").status, 404);

  const HttpResponse metrics = http_get(server.http_port(), "/metrics");
  EXPECT_EQ(metrics.status, 200);

  ::close(client);
  server.stop();
  server.wait();
  // The final seal folds the tail into the published snapshot.
  EXPECT_EQ(server.dataset().snapshot()->size(), kEvents);
  EXPECT_GE(server.dataset().epoch(), 2u);
}

TEST(Server, ConcurrentReadersDuringSustainedIngest) {
  ServerOptions opts;
  opts.epoch.min_rebuild_tail = 128;
  Server server(opts);
  server.start();

  std::atomic<bool> done{false};
  std::atomic<int> reads{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!done.load()) {
        const HttpResponse r =
            http_get(server.http_port(), "/report?system=5");
        // 404 until the first event lands, 200 after; anything else
        // (or a dropped connection) is a failure.
        if (r.status != 200 && r.status != 404) failures.fetch_add(1);
        reads.fetch_add(1);
      }
    });
  }

  const int client = connect_to(server.ingest_port());
  const std::size_t kEvents = 2000;
  std::string payload;
  for (std::size_t i = 0; i < kEvents; ++i) {
    payload += csv_line(rec(5, static_cast<int>(i % 16),
                            t0 + static_cast<Seconds>(i) * 60, 120));
  }
  send_all(client, payload);
  wait_until_ingested(server, kEvents);
  ::close(client);

  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(http_get(server.http_port(), "/report?system=5").status, 200);

  server.stop();
  server.wait();
}

TEST(Server, MaxEventsStopsTheDaemon) {
  ServerOptions opts;
  opts.max_events = 10;
  Server server(opts);
  server.start();
  const int client = connect_to(server.ingest_port());
  std::string payload;
  for (int i = 0; i < 25; ++i) {
    payload += csv_line(rec(1, 0, t0 + i * 60, 30));
  }
  send_all(client, payload);
  server.wait();  // returns because max_events tripped, not stop()
  ::close(client);
  EXPECT_GE(server.events_ingested(), 10u);
  EXPECT_EQ(server.dataset().snapshot()->size(), server.events_ingested());
}

TEST(Server, AcceptsQuotedNativeRowsAndHeaders) {
  // The daemon reads quoted rows and headers exactly as read_csv does.
  Server server(ServerOptions{});
  server.start();
  const int client = connect_to(server.ingest_port());
  send_all(client,
           "\"system\", node ,start,end,workload,cause,\"detail\"\n"
           "\"7\",\"0\",\"2004-06-01 00:00:00\",2004-06-01 00:05:00,"
           "compute,\"hardware\",memory_dimm\n");
  wait_until_ingested(server, 1);
  ::close(client);
  EXPECT_EQ(server.events_rejected(), 0u);
  EXPECT_NE(http_get(server.http_port(), "/stats")
                .body.find("\"ingest_format\":\"native\""),
            std::string::npos);
  server.stop();
  server.wait();
}

TEST(Server, ShutdownEndpointStopsTheDaemon) {
  Server server(ServerOptions{});
  server.start();
  const HttpResponse r = http_get(server.http_port(), "/shutdown");
  EXPECT_EQ(r.status, 200);
  EXPECT_NE(r.body.find("shutting_down"), std::string::npos);
  server.wait();
  EXPECT_FALSE(server.running());
}

TEST(Server, SeededServerServesReportsBeforeAnyIngest) {
  std::vector<trace::FailureRecord> records;
  for (int i = 0; i < 100; ++i) {
    records.push_back(rec(4, i % 4, t0 + i * 3600, 600));
  }
  Server server(ServerOptions{}, trace::FailureDataset(std::move(records)));
  server.start();
  const HttpResponse report =
      http_get(server.http_port(), "/report?system=4&window_hours=200");
  EXPECT_EQ(report.status, 200);
  EXPECT_NE(report.body.find("\"events_total\":100"), std::string::npos)
      << report.body;
  server.stop();
  server.wait();
  EXPECT_EQ(server.dataset().snapshot()->size(), 100u);
}

TEST(Server, ReportRejectsOutOfRangeQueryParameters) {
  std::vector<trace::FailureRecord> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back(rec(1, i % 2, t0 + i * 3600, 600));
  }
  Server server(ServerOptions{}, trace::FailureDataset(std::move(records)));
  server.start();
  const int port = server.http_port();
  const auto expect_rejected = [port](const std::string& target,
                                      const std::string& parameter) {
    const HttpResponse r = http_get(port, target);
    EXPECT_EQ(r.status, 400) << target;
    EXPECT_NE(r.body.find("'" + parameter + "'"), std::string::npos)
        << r.body;
  };

  // 2^32 + 1 narrowed to an int would alias system 1.
  expect_rejected("/report?system=4294967297", "system");
  expect_rejected("/report?system=2147483648", "system");
  expect_rejected("/report?system=0", "system");
  expect_rejected("/report?system=-1", "system");
  // Hours whose seconds overflow Seconds: converting them is undefined.
  expect_rejected("/report?system=1&window_hours=1e300", "window_hours");
  expect_rejected("/report?system=1&window_hours=-1e300", "window_hours");
  expect_rejected("/report?system=1&window_hours=2.6e15", "window_hours");
  // The widest windows that fit are still served.
  const std::string widest_hours = "/report?system=1&window_hours=2.5e15";
  EXPECT_EQ(http_get(port, widest_hours).status, 200);
  const std::string widest_seconds =
      "/report?system=1&window_seconds=9223372036854775807";
  EXPECT_EQ(http_get(port, widest_seconds).status, 200);
  EXPECT_EQ(http_get(port, "/report?system=2147483647").status, 404);
  // Parse errors name the parameter, and quote its text as valid JSON.
  const HttpResponse quoted = http_get(port, "/report?system=a\"b");
  EXPECT_EQ(quoted.status, 400);
  EXPECT_EQ(quoted.body,
            "{\"error\":\"parse error in parameter 'system': not an integer: "
            "'a\\\"b'\"}");
  const HttpResponse backslash =
      http_get(port, "/report?system=1&window_hours=x\\y");
  EXPECT_EQ(backslash.status, 400);
  EXPECT_EQ(backslash.body,
            "{\"error\":\"parse error in parameter 'window_hours': not a "
            "finite number: 'x\\\\y'\"}");

  server.stop();
  server.wait();
}

TEST(Server, TailsAnAppendedFile) {
  const std::string path =
      ::testing::TempDir() + "/serve_tail_" +
      std::to_string(::getpid()) + ".csv";
  std::remove(path.c_str());

  ServerOptions opts;
  opts.tail_path = path;
  Server server(opts);
  server.start();
  {
    std::string text = "system,node,start,end,workload,cause,detail\n";
    for (int i = 0; i < 20; ++i) text += csv_line(rec(6, 0, t0 + i * 60, 30));
    std::ofstream out(path, std::ios::binary);
    out << text;
  }
  wait_until_ingested(server, 20);
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << csv_line(rec(6, 1, t0 + 9000, 30));
  }
  wait_until_ingested(server, 21);
  server.stop();
  server.wait();
  std::remove(path.c_str());
  EXPECT_EQ(server.dataset().snapshot()->size(), 21u);
}

// --- HTTP hardening (slow-loris + interrupted sends) ----------------------

// Regression: the old loop bounded each recv (2s SO_RCVTIMEO) but not
// the request, so a client trickling one byte per interval held the sole
// HTTP thread forever and starved every other reader.
TEST(Server, SlowLorisRequestIsBoundedByAnOverallDeadline) {
  ServerOptions opts;
  opts.http_request_deadline_ms = 250;
  Server server(opts);
  server.start();

  const int slow = connect_to(server.http_port());
  std::atomic<bool> trickling{true};
  std::thread trickler([&] {
    const char byte = 'G';  // never completes a request line
    for (int i = 0; i < 30 && trickling.load(); ++i) {
      if (::send(slow, &byte, 1, MSG_NOSIGNAL) <= 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  // A reader queued behind the slow request must be served once the
  // deadline trips — not after the trickler gives up (3s).
  const auto begin = std::chrono::steady_clock::now();
  const HttpResponse health = http_get(server.http_port(), "/healthz");
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - begin);
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");
  EXPECT_LT(waited.count(), 1500) << "healthz starved by a slow-loris peer";
  for (int i = 0; i < 200 && server.http_request_timeouts() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.http_request_timeouts(), 1u);

  trickling.store(false);
  trickler.join();
  ::close(slow);
  server.stop();
  server.wait();
}

// Regression: the old response loop aborted on any send() <= 0, so an
// EINTR under signal load silently truncated /metrics and /report.
TEST(Server, SendFullyRetriesInterruptedSends) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  struct sigaction action {};
  action.sa_handler = +[](int) {};  // interrupt blocking sends, do nothing
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately no SA_RESTART
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

  // Far larger than the socketpair buffer, so the sender blocks and the
  // signals land mid-send.
  const std::string payload(8 * 1024 * 1024, 'x');
  std::atomic<std::size_t> sent{0};
  std::thread sender(
      [&] { sent.store(send_fully(fds[0], payload)); });

  std::size_t received = 0;
  char buffer[4096];
  while (received < payload.size()) {
    pthread_kill(sender.native_handle(), SIGUSR1);
    const ssize_t n = ::recv(fds[1], buffer, sizeof(buffer), 0);
    ASSERT_GT(n, 0);
    received += static_cast<std::size_t>(n);
  }
  sender.join();
  EXPECT_EQ(sent.load(), payload.size());
  EXPECT_EQ(received, payload.size());

  ::sigaction(SIGUSR1, &previous, nullptr);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Server, SendFullyReturnsShortWhenThePeerIsGone) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  const std::string payload(1024 * 1024, 'y');
  // Must not raise SIGPIPE (MSG_NOSIGNAL) and must report the shortfall.
  EXPECT_LT(send_fully(fds[0], payload), payload.size());
  ::close(fds[0]);
}

// Regression: with every descriptor in use, accept() failed with EMFILE,
// the accept loops stopped, and the next poll reported the listener ready
// at once: both loops spun a core each and /healthz timed out.
TEST(Server, RunningOutOfDescriptorsNeitherSpinsNorStopsServing) {
  Server server(ServerOptions{});
  server.start();

  // A low limit keeps the filling short; it is restored below.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = std::min<rlim_t>(saved.rlim_cur, 256);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  std::vector<int> filler;
  for (int fd; (fd = ::open("/dev/null", O_RDONLY)) >= 0;) {
    filler.push_back(fd);
  }
  // Two descriptors back for the clients, both taken before either
  // connects, so none is left for accept(): each listener keeps one
  // connection in its backlog, and the HTTP one has its request waiting.
  for (int i = 0; i < 2 && !filler.empty(); ++i) {
    ::close(filler.back());
    filler.pop_back();
  }
  const int ingest = ::socket(AF_INET, SOCK_STREAM, 0);
  const int http = ::socket(AF_INET, SOCK_STREAM, 0);
  connect_to(server.ingest_port(), ingest);
  connect_to(server.http_port(), http);
  send_all(http, "GET /healthz HTTP/1.0\r\n\r\n");

  obs::Registry unused;
  obs::ScopedTimer idle("idle", /*cpu=*/true, unused);
  std::this_thread::sleep_for(std::chrono::seconds(1));
  idle.stop();
  const double cpu = idle.cpu_seconds();
  EXPECT_LT(cpu, 0.25 * idle.elapsed_seconds()) << cpu << " CPU-s in 1 s";

  for (const int fd : filler) ::close(fd);
  ::setrlimit(RLIMIT_NOFILE, &saved);
  timeval patience{};  // a failure must not hang the test
  patience.tv_sec = 5;
  ::setsockopt(http, SOL_SOCKET, SO_RCVTIMEO, &patience, sizeof(patience));
  const HttpResponse health = read_response(http);
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");
  send_all(ingest, csv_line(rec(2, 0, t0, 60)));
  wait_until_ingested(server, 1);
  for (const std::string port : {"ingest", "http"}) {
    const std::string name = "serve.connections_refused{port=" + port + "}";
    EXPECT_GT(obs::registry().counter(name).value(), 0u) << name;
  }
  ::close(ingest);
  server.stop();
  server.wait();
}

// --- sharded ingest end-to-end --------------------------------------------

TEST(Server, ShardedIngestSealsIdenticalToBatch) {
  ServerOptions opts;
  opts.ingest_threads = 4;
  opts.epoch.min_rebuild_tail = 256;  // several seals mid-stream
  Server server(opts);
  server.start();

  std::vector<trace::FailureRecord> records;
  const std::size_t kEvents = 2000;
  for (std::size_t i = 0; i < kEvents; ++i) {
    records.push_back(rec(1 + static_cast<int>(i % 3),
                          static_cast<int>(i % 8),
                          t0 + static_cast<Seconds>(i) * 60, 300));
  }

  // Four producer connections, events sharded by (system, node) so each
  // node's stream stays ordered within one connection.
  std::vector<int> clients;
  std::vector<std::string> payloads(4);
  for (int c = 0; c < 4; ++c) clients.push_back(connect_to(server.ingest_port()));
  payloads[0] = payloads[2] = "not,a,valid,line\n";  // one reject each
  for (const trace::FailureRecord& r : records) {
    const std::size_t c = (static_cast<std::size_t>(r.system_id) * 8191u +
                           static_cast<std::size_t>(r.node_id)) %
                          4;
    payloads[c] += csv_line(r);
  }
  for (int c = 0; c < 4; ++c) send_all(clients[c], payloads[c]);
  wait_until_ingested(server, kEvents);
  for (int i = 0; i < 500 && server.events_rejected() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const HttpResponse stats = http_get(server.http_port(), "/stats");
  EXPECT_EQ(stats.status, 200);
  EXPECT_NE(stats.body.find("\"ingest_threads\":4"), std::string::npos)
      << stats.body;
  // The daemon's totals are the sums of its per-shard counts.
  const std::size_t shards_at = stats.body.find("\"shards\":[");
  ASSERT_NE(shards_at, std::string::npos) << stats.body;
  const std::size_t shards_end = stats.body.find(']', shards_at);
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t connections = 0;
  std::size_t entries = 0;
  for (std::size_t at = stats.body.find('{', shards_at); at < shards_end;
       at = stats.body.find('{', at + 1)) {
    accepted += json_number(stats.body, "accepted", at);
    rejected += json_number(stats.body, "rejected", at);
    connections += json_number(stats.body, "connections", at);
    ++entries;
  }
  EXPECT_EQ(entries, 4u);
  EXPECT_EQ(json_number(stats.body, "events_ingested"), accepted);
  EXPECT_EQ(json_number(stats.body, "events_rejected"), rejected);
  EXPECT_EQ(json_number(stats.body, "connections"), connections);
  EXPECT_EQ(accepted, kEvents);
  EXPECT_EQ(rejected, 2u);
  EXPECT_EQ(connections, 4u);

  for (const int c : clients) ::close(c);
  server.stop();
  server.wait();

  // The tentpole contract over real sockets: bit-identical to one batch
  // build of the same records.
  const trace::FailureDataset reference{std::move(records)};
  const std::shared_ptr<const trace::FailureDataset> got =
      server.dataset().snapshot();
  ASSERT_EQ(got->size(), reference.size());
  const trace::ColumnsView g = got->records();
  const trace::ColumnsView w = reference.records();
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(g.starts()[i], w.starts()[i]) << "row " << i;
    ASSERT_EQ(g.system_ids()[i], w.system_ids()[i]) << "row " << i;
    ASSERT_EQ(g.node_ids()[i], w.node_ids()[i]) << "row " << i;
    ASSERT_EQ(g.ends()[i], w.ends()[i]) << "row " << i;
  }
}

TEST(Server, RetentionCompactsOldEventsDuringIngest) {
  ServerOptions opts;
  opts.epoch.min_rebuild_tail = 128;
  opts.epoch.max_sealed_events = 300;
  Server server(opts);
  server.start();

  const int client = connect_to(server.ingest_port());
  std::string payload;
  const std::size_t kEvents = 1000;
  for (std::size_t i = 0; i < kEvents; ++i) {
    payload += csv_line(rec(9, static_cast<int>(i % 8),
                            t0 + static_cast<Seconds>(i) * 60, 120));
  }
  send_all(client, payload);
  wait_until_ingested(server, kEvents);

  const HttpResponse stats = http_get(server.http_port(), "/stats");
  EXPECT_NE(stats.body.find("\"compacted_events\":"), std::string::npos);
  EXPECT_NE(stats.body.find("\"retention_horizon\":"), std::string::npos);

  ::close(client);
  server.stop();
  server.wait();
  // Every append is accounted for: raw (sealed + tail) + compacted.
  EXPECT_GT(server.dataset().compacted_events(), 0u);
  EXPECT_EQ(server.dataset().size() + server.dataset().compacted_events(),
            kEvents);
  EXPECT_LE(server.dataset().sealed_size(), 301u);  // cap + tie slack
}

// Regression: before the compacted-ledger view, /report silently lost
// every event retention had folded into SuffStats — a long-lived daemon
// under-reported history with no hint anything was missing.
TEST(Server, ReportAccountsForCompactedPreHorizonEvents) {
  ServerOptions opts;
  opts.epoch.min_rebuild_tail = 128;
  opts.epoch.max_sealed_events = 300;  // force compaction mid-stream
  Server server(opts);
  server.start();

  const int client = connect_to(server.ingest_port());
  std::string payload;
  const std::size_t kEvents = 1000;
  for (std::size_t i = 0; i < kEvents; ++i) {
    payload += csv_line(rec(9, static_cast<int>(i % 8),
                            t0 + static_cast<Seconds>(i) * 60, 120));
  }
  send_all(client, payload);
  wait_until_ingested(server, kEvents);
  ::close(client);
  for (int i = 0; i < 500 && server.dataset().compacted_events() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  // Compaction only advances on seals, and ingest has drained, so the
  // ledger is stable from here on.
  const std::uint64_t compacted = server.dataset().compacted_events();
  ASSERT_GT(compacted, 0u);

  const HttpResponse report =
      http_get(server.http_port(), "/report?system=9&window_hours=48");
  EXPECT_EQ(report.status, 200);
  // The live window still sees every observation (analytics is not
  // subject to retention)...
  EXPECT_NE(report.body.find("\"events_total\":" +
                             std::to_string(kEvents)),
            std::string::npos)
      << report.body;
  // ...and the compacted section accounts for exactly the pre-horizon
  // events the store folded away, with their per-cause repair stats.
  const std::string needle =
      "\"compacted\":{\"events\":" + std::to_string(compacted);
  EXPECT_NE(report.body.find(needle), std::string::npos) << report.body;
  const std::size_t section = report.body.find("\"compacted\":");
  ASSERT_NE(section, std::string::npos);
  EXPECT_NE(report.body.find("\"cause\":\"hardware\"", section),
            std::string::npos)
      << report.body;
  EXPECT_NE(report.body.find("\"repair_minutes\"", section),
            std::string::npos);

  // Systems with no compaction cells report an empty ledger.
  const HttpResponse other =
      http_get(server.http_port(), "/report?system=9&window_hours=1");
  EXPECT_NE(other.body.find(needle), std::string::npos)
      << "ledger must not depend on the window";

  server.stop();
  server.wait();
}

// /stats counts the events whose repair entry no analytics window took:
// none for an in-order stream, one for an event older than the span behind
// its window's newest entry. /report clamps a longer window to the span.
TEST(Server, StatsCountTheEventsNoAnalyticsWindowTook) {
  Server server(ServerOptions{});
  server.start();
  const int client = connect_to(server.ingest_port());
  std::string payload;
  for (int i = 0; i < 400; ++i) {
    payload += csv_line(rec(8, i % 4, t0 + i * kSecondsPerHour, 300));
  }
  send_all(client, payload);
  wait_until_ingested(server, 400);
  EXPECT_NE(http_get(server.http_port(), "/stats")
                .body.find("\"analytics_dropped_events\":0"),
            std::string::npos);
  const HttpResponse report =
      http_get(server.http_port(), "/report?system=8&window_hours=87600");
  EXPECT_NE(report.body.find("\"window_seconds\":1209600"), std::string::npos)
      << report.body;

  send_all(client, csv_line(rec(8, 1, t0, 300)));  // 399 hours behind
  wait_until_ingested(server, 401);
  const HttpResponse stats = http_get(server.http_port(), "/stats");
  EXPECT_NE(stats.body.find("\"analytics_dropped_events\":1"),
            std::string::npos)
      << stats.body;
  ::close(client);
  server.stop();
  server.wait();
}

// --- replay client ---------------------------------------------------------

TEST(Replay, RejectsInvalidOptions) {
  const trace::FailureDataset empty;
  {
    ReplayOptions opts;  // port 0
    EXPECT_THROW(replay_dataset(empty, opts), ValidationError);
  }
  {
    ReplayOptions opts;
    opts.port = 9;
    opts.connections = 0;
    EXPECT_THROW(replay_dataset(empty, opts), ValidationError);
  }
  {
    ReplayOptions opts;
    opts.port = 9;
    opts.speedup = -1.0;
    EXPECT_THROW(replay_dataset(empty, opts), ValidationError);
  }
}

TEST(Replay, FullSpeedReplayIngestsTheWholeTrace) {
  std::vector<trace::FailureRecord> records;
  for (int i = 0; i < 800; ++i) {
    records.push_back(rec(2 + i % 2, i % 8, t0 + i * 60, 300));
  }
  const trace::FailureDataset dataset{std::move(records)};

  ServerOptions sopts;
  sopts.ingest_threads = 2;
  Server server(sopts);
  server.start();

  ReplayOptions ropts;
  ropts.port = server.ingest_port();
  ropts.connections = 3;
  const ReplayStats stats = replay_dataset(dataset, ropts);
  EXPECT_EQ(stats.events_sent, 800u);
  EXPECT_GT(stats.bytes_sent, 0u);
  wait_until_ingested(server, 800);
  server.stop();
  server.wait();
  EXPECT_EQ(server.events_rejected(), 0u);
  EXPECT_EQ(server.dataset().snapshot()->size(), 800u);
}

TEST(Replay, ReplayedReportsMatchASeededServerByteForByte) {
  std::vector<trace::FailureRecord> records;
  for (int i = 0; i < 300; ++i) {
    records.push_back(rec(5, i % 6, t0 + i * 900, 60 + (i % 7) * 30));
  }
  const trace::FailureDataset replayed{std::vector<trace::FailureRecord>(records)};

  Server live(ServerOptions{});
  live.start();
  ReplayOptions ropts;
  ropts.port = live.ingest_port();
  ropts.connections = 1;  // one connection: arrival order == trace order
  replay_dataset(replayed, ropts);
  wait_until_ingested(live, 300);

  Server seeded(ServerOptions{},
                trace::FailureDataset{std::vector<trace::FailureRecord>(records)});
  seeded.start();

  // Identical observation sequences must yield identical report bytes.
  const std::string target = "/report?system=5&window_hours=80";
  const HttpResponse from_live = http_get(live.http_port(), target);
  const HttpResponse from_seed = http_get(seeded.http_port(), target);
  EXPECT_EQ(from_live.status, 200);
  EXPECT_EQ(from_live.body, from_seed.body);

  live.stop();
  seeded.stop();
  live.wait();
  seeded.wait();
}

TEST(Replay, ForeignFormatReplayMatchesBatchLoadByteForByte) {
  // Satellite: a foreign-format trace pushed through the adapter path end
  // to end. Write a lu-format file, batch-load it back through the
  // adapter, replay the loaded trace over the lu wire format into a
  // `--format lu` daemon, and require the live /report to be
  // byte-identical to a server seeded from the same batch load.
  std::vector<trace::FailureRecord> records;
  for (int i = 0; i < 300; ++i) {
    records.push_back(rec(5, i % 6, t0 + i * 900, 60 + (i % 7) * 30));
  }
  const trace::Adapter& lu = trace::adapter_for("lu");
  const std::string path = ::testing::TempDir() + "/replay_foreign_" +
                           std::to_string(::getpid()) + ".lu";
  trace::write_csv_file(path, trace::FailureDataset{std::move(records)}, lu);
  const trace::FailureDataset loaded = trace::read_csv_file(path, lu);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.size(), 300u);

  ServerOptions lopts;
  lopts.ingest_format = "lu";
  Server live(lopts);
  live.start();
  ReplayOptions ropts;
  ropts.port = live.ingest_port();
  ropts.connections = 1;  // one connection: arrival order == trace order
  ropts.format = &lu;
  const ReplayStats stats = replay_dataset(loaded, ropts);
  EXPECT_EQ(stats.events_sent, 300u);
  wait_until_ingested(live, 300);
  EXPECT_EQ(live.events_rejected(), 0u);

  Server seeded(ServerOptions{}, trace::FailureDataset(loaded));
  seeded.start();

  const std::string target = "/report?system=5&window_hours=80";
  const HttpResponse from_live = http_get(live.http_port(), target);
  const HttpResponse from_seed = http_get(seeded.http_port(), target);
  EXPECT_EQ(from_live.status, 200);
  EXPECT_EQ(from_live.body, from_seed.body);

  live.stop();
  seeded.stop();
  live.wait();
  seeded.wait();
}

/// The raw JSON value (object, array, string or number) of the first
/// `"key":` in `json`; empty when the key is absent.
std::string json_field(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t begin = json.find(needle);
  if (begin == std::string::npos) return {};
  std::size_t end = begin + needle.size();
  int depth = 0;
  bool in_string = false;
  for (; end < json.size(); ++end) {
    const char ch = json[end];
    if (in_string) {
      if (ch == '\\') {
        ++end;
      } else if (ch == '"') {
        in_string = false;
      }
    } else if (ch == '"') {
      in_string = true;
    } else if (ch == '{' || ch == '[') {
      ++depth;
    } else if ((ch == '}' || ch == ']') && depth > 0) {
      --depth;
    } else if ((ch == ',' || ch == '}' || ch == ']') && depth == 0) {
      break;
    }
  }
  return json.substr(begin + needle.size(), end - begin - needle.size());
}

// The determinism contract in serve/analytics.hpp: every node-scoped
// /report field is byte-identical at any ingest shard count, because
// replay's stable (system, node) hash keeps each node's events on one
// connection, in trace order. system_gaps_seconds is deliberately not
// compared: it depends on how different nodes' events interleave.
TEST(Replay, ShardCountLeavesNodeScopedReportFieldsByteIdentical) {
  constexpr trace::DetailCause kDetails[] = {
      trace::DetailCause::memory_dimm, trace::DetailCause::cpu,
      trace::DetailCause::operating_system, trace::DetailCause::nic,
      trace::DetailCause::ac_failure, trace::DetailCause::operator_error,
      trace::DetailCause::undetermined};
  std::mt19937 rng(7);
  std::uniform_int_distribution<int> system(1, 3);
  std::uniform_int_distribution<int> node(0, 15);
  std::uniform_int_distribution<std::size_t> detail(0, 6);
  std::uniform_int_distribution<Seconds> start(0, 30 * 24 * kSecondsPerHour);
  std::uniform_int_distribution<Seconds> repair(0, 8 * kSecondsPerHour);
  // Large enough that replay flushes each connection's 64 KiB buffer
  // several times, so different nodes' events interleave differently at
  // 1, 2, 4 and 8 ingest threads.
  std::vector<trace::FailureRecord> records;
  for (int i = 0; i < 24000; ++i) {
    trace::FailureRecord r;
    r.system_id = system(rng);
    r.node_id = node(rng);
    r.detail = kDetails[detail(rng)];
    r.cause = trace::category_of(r.detail);
    r.start = t0 + start(rng);
    r.end = r.start + repair(rng);
    records.push_back(r);
  }
  const trace::FailureDataset dataset{std::move(records)};

  std::vector<std::string> targets;
  for (const int system_id : {1, 2, 3}) {
    for (const char* hours : {"87600", "48"}) {
      targets.push_back("/report?system=" + std::to_string(system_id) +
                        "&window_hours=" + hours);
    }
  }
  std::vector<std::vector<std::string>> bodies;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    ServerOptions sopts;
    sopts.ingest_threads = threads;
    Server server(sopts);
    server.start();
    ReplayOptions ropts;
    ropts.port = server.ingest_port();
    ropts.connections = 4;
    replay_dataset(dataset, ropts);
    wait_until_ingested(server, dataset.size());
    bodies.emplace_back();
    for (const std::string& target : targets) {
      const HttpResponse r = http_get(server.http_port(), target);
      EXPECT_EQ(r.status, 200) << target;
      bodies.back().push_back(r.body);
    }
    server.stop();
    server.wait();
  }

  for (std::size_t t = 0; t < targets.size(); ++t) {
    for (const char* field :
         {"events_total", "now", "repair_minutes", "node_gaps_seconds",
          "by_cause", "repair_fits", "node_gap_fits"}) {
      const std::string one_shard = json_field(bodies[0][t], field);
      EXPECT_FALSE(one_shard.empty()) << targets[t] << " " << field;
      for (std::size_t run = 1; run < bodies.size(); ++run) {
        EXPECT_EQ(one_shard, json_field(bodies[run][t], field))
            << targets[t] << " " << field << " run " << run;
      }
    }
  }
}

TEST(Replay, SpeedupPacesTheWallClock) {
  std::vector<trace::FailureRecord> records;
  for (int i = 0; i <= 10; ++i) {
    records.push_back(rec(1, i % 4, t0 + i, 60));  // 10s trace span
  }
  const trace::FailureDataset dataset{std::move(records)};

  Server server(ServerOptions{});
  server.start();
  ReplayOptions ropts;
  ropts.port = server.ingest_port();
  ropts.speedup = 20.0;  // 10s of trace time -> ~0.5s wall
  const ReplayStats stats = replay_dataset(dataset, ropts);
  EXPECT_EQ(stats.events_sent, 11u);
  EXPECT_EQ(stats.trace_span, 10u);
  EXPECT_GE(stats.wall_seconds, 0.45);
  EXPECT_LT(stats.wall_seconds, 5.0);
  server.stop();
  server.wait();
}

// Raw epoch seconds, as a Lu-format log carries them, can put two starts
// more than 2^63 - 1 seconds apart: the span and the pacing offsets are
// taken in unsigned arithmetic, where that difference is exact.
TEST(Replay, SpanPastTheSignedRangeIsExact) {
  constexpr Seconds kFar = 9'000'000'000'000'000'000;
  std::vector<trace::FailureRecord> records = {rec(1, 0, -kFar, 60),
                                               rec(1, 1, kFar, 60)};
  const trace::FailureDataset dataset{std::move(records)};

  Server server(ServerOptions{});
  server.start();
  ReplayOptions ropts;
  ropts.port = server.ingest_port();
  for (const double speedup : {0.0, 1e20}) {  // 1e20: 1.8e19 s in 0.18 s
    ropts.speedup = speedup;
    const ReplayStats stats = replay_dataset(dataset, ropts);
    EXPECT_EQ(stats.events_sent, 2u) << speedup;
    EXPECT_EQ(stats.trace_span, 18'000'000'000'000'000'000u) << speedup;
    EXPECT_LT(stats.wall_seconds, 5.0) << speedup;
  }
  server.stop();
  server.wait();
}

}  // namespace
}  // namespace hpcfail::serve
