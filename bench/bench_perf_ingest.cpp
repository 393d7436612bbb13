// Streaming-ingest throughput.
//
// Default mode writes BENCH_PR8.json (gated in CI by
// tools/check_bench_floor.py --min-ingest-events-per-sec): the daemon's
// whole per-event hot path on one core, sockets excluded (they are
// kernel cost, not ours): line-protocol text in 64KB chunks ->
// LineSource framing/parsing -> LiveDataset::append (tail columns +
// amortized epoch seals) -> LiveAnalytics::observe (the per-node table's
// sliding repair/gap cells). That is exactly the work `hpcfail serve`
// does between recv() and the next poll round.
//
// `--pr9` mode writes BENCH_PR9.json (gated by
// --min-sharded-events-per-sec): the sharded variant of the same hot
// path. The stream is partitioned by the replay client's stable
// (system, node) connection hash, each partition is parsed and appended
// by its own thread into its own LiveDataset shard, and analytics
// observations are batched through the shared mutex exactly like
// Server::drain_source. A second leg replays 5M events under
// max_sealed_events retention and checks that memory stays bounded and
// the compaction ledger accounts for every event.
//
// Both modes cross-check correctness at scale: after a final seal, the
// incrementally-maintained dataset must be column-for-column identical
// to a from-scratch FailureDataset over the same records ("identical" in
// the JSON; the floor checker fails the build when false).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/time.hpp"
#include "serve/analytics.hpp"
#include "trace/dataset.hpp"
#include "trace/ingest.hpp"
#include "trace/source.hpp"

namespace {

using namespace hpcfail;

constexpr std::size_t kEvents = 1'000'000;
constexpr int kSystems = 8;
constexpr int kNodesPerSystem = 128;
constexpr std::size_t kChunkBytes = 64 * 1024;

std::vector<trace::FailureRecord> stream_records(std::size_t count) {
  // A live feed: strictly increasing start times (so the from-scratch
  // sort order is unique and the identity check is exact), rotating over
  // systems and nodes.
  Rng rng(777);
  std::vector<trace::FailureRecord> out;
  out.reserve(count);
  Seconds at = to_epoch(1998, 1, 1);
  for (std::size_t i = 0; i < count; ++i) {
    at += 1 + static_cast<Seconds>(rng.uniform_index(30));
    trace::FailureRecord r;
    r.system_id = 1 + static_cast<int>(rng.uniform_index(kSystems));
    r.node_id = static_cast<int>(rng.uniform_index(kNodesPerSystem));
    r.start = at;
    r.end = at + 60 + static_cast<Seconds>(rng.uniform_index(7200));
    r.workload = trace::Workload::compute;
    r.cause = trace::RootCause::hardware;
    r.detail = trace::DetailCause::memory_dimm;
    out.push_back(r);
  }
  return out;
}

std::string render_line_protocol(
    const std::vector<trace::FailureRecord>& records) {
  std::string text;
  text.reserve(records.size() * 80);
  for (const trace::FailureRecord& r : records) {
    text += std::to_string(r.system_id);
    text += ',';
    text += std::to_string(r.node_id);
    text += ',';
    text += format_timestamp(r.start);
    text += ',';
    text += format_timestamp(r.end);
    text += ",compute,hardware,memory_dimm\n";
  }
  return text;
}

bool bit_identical(const trace::FailureDataset& got,
                   const trace::FailureDataset& want) {
  if (got.size() != want.size()) return false;
  const trace::ColumnsView g = got.records();
  const trace::ColumnsView w = want.records();
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (g.starts()[i] != w.starts()[i] || g.ends()[i] != w.ends()[i] ||
        g.system_ids()[i] != w.system_ids()[i] ||
        g.node_ids()[i] != w.node_ids()[i] ||
        g.workloads()[i] != w.workloads()[i] ||
        g.causes()[i] != w.causes()[i] ||
        g.details()[i] != w.details()[i]) {
      return false;
    }
  }
  return true;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void write_or_print(const std::string& json, const std::string& out_path) {
  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << json;
    std::cerr << "wrote " << out_path << "\n";
  } else {
    std::cout << json;
  }
}

int run_pr8(const std::string& out_path) {
  set_parallelism(1);  // single-core: the gated number is thread-free

  std::cerr << "generating " << kEvents << " events...\n";
  const std::vector<trace::FailureRecord> records = stream_records(kEvents);
  const std::string text = render_line_protocol(records);

  std::cerr << "ingesting " << (text.size() >> 20) << " MiB of line "
            << "protocol on one core...\n";
  trace::LineSource source;
  trace::LiveDataset live;
  serve::LiveAnalytics analytics;
  trace::FailureRecord r;
  const auto ingest_start = std::chrono::steady_clock::now();
  for (std::size_t off = 0; off < text.size(); off += kChunkBytes) {
    source.feed(std::string_view(text).substr(
        off, std::min(kChunkBytes, text.size() - off)));
    while (source.next(r) == trace::SourceStatus::event) {
      live.append(r);
      analytics.observe(r);
    }
  }
  const double ingest_seconds = seconds_since(ingest_start);
  const std::uint64_t epochs_during_ingest = live.epoch();

  const auto seal_start = std::chrono::steady_clock::now();
  live.seal();
  const double final_seal_seconds = seconds_since(seal_start);

  const auto report_start = std::chrono::steady_clock::now();
  const serve::WindowReport report =
      analytics.report(1, 24 * 7 * kSecondsPerHour);
  const double report_seconds = seconds_since(report_start);

  std::cerr << "cross-checking against a from-scratch dataset...\n";
  const trace::FailureDataset reference{
      std::vector<trace::FailureRecord>(records)};
  const bool identical = bit_identical(*live.snapshot(), reference);

  const double rate =
      static_cast<double>(source.counters().accepted) / ingest_seconds;
  std::ostringstream json;
  json << "{\n  \"benchmark\": \"pr8_ingest\",\n";
  json << "  \"single_core\": {\n";
  json << "    \"events\": " << source.counters().accepted << ",\n";
  json << "    \"bytes\": " << text.size() << ",\n";
  json << "    \"seconds\": " << ingest_seconds << ",\n";
  json << "    \"events_per_sec\": " << rate << ",\n";
  json << "    \"epochs\": " << epochs_during_ingest << ",\n";
  json << "    \"final_seal_seconds\": " << final_seal_seconds << "\n";
  json << "  },\n";
  json << "  \"window_report\": {\n";
  json << "    \"events_total\": " << report.events_total << ",\n";
  json << "    \"repair_n\": " << report.repair_minutes.n << ",\n";
  json << "    \"seconds\": " << report_seconds << "\n";
  json << "  },\n";
  json << "  \"identical\": " << (identical ? "true" : "false") << "\n";
  json << "}\n";

  write_or_print(json.str(), out_path);
  std::cerr << "single-core: " << static_cast<std::uint64_t>(rate)
            << " events/sec over " << source.counters().accepted
            << " events (" << epochs_during_ingest << " epochs), "
            << (identical ? "identical" : "MISMATCH") << "\n";
  return identical ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --pr9: sharded ingest + retention

// The replay client's stable connection hash: one node's events always
// land on the same shard, so every per-shard stream is internally
// ordered per node, exactly like a `--connections N` replay.
std::size_t shard_of(const trace::FailureRecord& r, std::size_t shards) {
  return (static_cast<std::size_t>(r.system_id) * 8191u +
          static_cast<std::size_t>(r.node_id)) %
         shards;
}

struct ShardedRun {
  std::uint64_t events = 0;
  double seconds = 0.0;
  double events_per_sec = 0.0;
  std::uint64_t epochs = 0;
  bool identical = false;
};

// One thread per shard: parse that shard's partition of the line
// protocol and append into its LiveDataset shard, batching analytics
// observations through the shared mutex like Server::drain_source.
ShardedRun run_sharded(const std::vector<trace::FailureRecord>& records,
                       const trace::FailureDataset& reference,
                       std::size_t shards) {
  std::vector<std::string> parts(shards);
  {
    std::vector<std::vector<trace::FailureRecord>> split(shards);
    for (const trace::FailureRecord& r : records) {
      split[shard_of(r, shards)].push_back(r);
    }
    for (std::size_t s = 0; s < shards; ++s) {
      parts[s] = render_line_protocol(split[s]);
    }
  }

  trace::LiveDataset::Options opts;
  opts.shards = shards;
  trace::LiveDataset live(opts);
  serve::LiveAnalytics analytics;
  std::mutex analytics_mutex;
  std::atomic<std::uint64_t> accepted{0};
  constexpr std::size_t kObserveBatch = 256;

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    threads.emplace_back([&, s] {
      trace::LineSource source;
      trace::FailureRecord r;
      std::vector<trace::FailureRecord> batch;
      batch.reserve(kObserveBatch);
      const auto flush = [&] {
        if (batch.empty()) return;
        const std::lock_guard<std::mutex> lock(analytics_mutex);
        for (const trace::FailureRecord& b : batch) analytics.observe(b);
        batch.clear();
      };
      const std::string& text = parts[s];
      for (std::size_t off = 0; off < text.size(); off += kChunkBytes) {
        source.feed(std::string_view(text).substr(
            off, std::min(kChunkBytes, text.size() - off)));
        while (source.next(r) == trace::SourceStatus::event) {
          live.append(s, r);
          batch.push_back(r);
          if (batch.size() >= kObserveBatch) flush();
        }
      }
      flush();
      accepted.fetch_add(source.counters().accepted);
    });
  }
  for (std::thread& t : threads) t.join();

  ShardedRun run;
  run.seconds = seconds_since(start);
  live.seal();
  run.events = accepted.load();
  run.events_per_sec =
      run.seconds > 0.0 ? static_cast<double>(run.events) / run.seconds : 0.0;
  run.epochs = live.epoch();
  run.identical = bit_identical(*live.snapshot(), reference);
  return run;
}

struct RetentionLeg {
  std::uint64_t events = 0;
  std::size_t max_sealed_events = 0;
  std::size_t peak_live_events = 0;
  std::uint64_t sealed = 0;
  std::uint64_t tail = 0;
  std::uint64_t compacted = 0;
  double seconds = 0.0;
  bool accounted = false;
  bool bounded = false;
};

// 5M events through a capped store, generated on the fly so the leg's
// own memory footprint stays small. Samples live size for the peak;
// checks the ledger accounts for every event and that the peak never
// exceeds the cap plus the geometric tail allowance.
RetentionLeg run_retention(std::uint64_t count, std::size_t cap) {
  RetentionLeg leg;
  leg.events = count;
  leg.max_sealed_events = cap;

  trace::LiveDataset::Options opts;
  opts.max_sealed_events = cap;
  trace::LiveDataset live(opts);
  Rng rng(4242);
  Seconds at = to_epoch(1998, 1, 1);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < count; ++i) {
    at += 1 + static_cast<Seconds>(rng.uniform_index(30));
    trace::FailureRecord r;
    r.system_id = 1 + static_cast<int>(rng.uniform_index(kSystems));
    r.node_id = static_cast<int>(rng.uniform_index(kNodesPerSystem));
    r.start = at;
    r.end = at + 60 + static_cast<Seconds>(rng.uniform_index(7200));
    r.workload = trace::Workload::compute;
    r.cause = trace::RootCause::hardware;
    r.detail = trace::DetailCause::memory_dimm;
    live.append(r);
    if ((i & 0xFFFF) == 0) {
      leg.peak_live_events = std::max(leg.peak_live_events, live.size());
    }
  }
  live.seal();
  leg.seconds = seconds_since(start);
  leg.peak_live_events = std::max(leg.peak_live_events, live.size());
  leg.sealed = live.sealed_size();
  leg.tail = live.tail_size();
  leg.compacted = live.compacted_events();
  leg.accounted = leg.sealed + leg.tail + leg.compacted == count;
  // Between seals the tails may grow to rebuild_fraction x sealed
  // before the next trim, so the steady-state peak is bounded by
  // (1 + rebuild_fraction) x cap; 2x leaves headroom for seal timing.
  leg.bounded = leg.peak_live_events <= 2 * cap;
  return leg;
}

int run_pr9(const std::string& out_path) {
  constexpr std::size_t kShards = 4;
  constexpr std::uint64_t kRetentionEvents = 5'000'000;
  constexpr std::size_t kRetentionCap = 1'000'000;

  std::cerr << "generating " << kEvents << " events...\n";
  const std::vector<trace::FailureRecord> records = stream_records(kEvents);
  const trace::FailureDataset reference{
      std::vector<trace::FailureRecord>(records)};

  std::cerr << "ingesting on 1 shard...\n";
  const ShardedRun single = run_sharded(records, reference, 1);
  std::cerr << "ingesting on " << kShards << " shards...\n";
  const ShardedRun multi = run_sharded(records, reference, kShards);

  std::cerr << "retention: " << kRetentionEvents << " events through a "
            << kRetentionCap << "-event cap...\n";
  const RetentionLeg retention =
      run_retention(kRetentionEvents, kRetentionCap);

  const bool identical = single.identical && multi.identical;
  const unsigned cores = std::thread::hardware_concurrency();
  std::ostringstream json;
  json << "{\n  \"benchmark\": \"pr9_ingest\",\n";
  json << "  \"cores\": " << cores << ",\n";
  json << "  \"single_shard\": {\n";
  json << "    \"events\": " << single.events << ",\n";
  json << "    \"seconds\": " << single.seconds << ",\n";
  json << "    \"events_per_sec\": " << single.events_per_sec << ",\n";
  json << "    \"epochs\": " << single.epochs << "\n";
  json << "  },\n";
  json << "  \"multi_shard\": {\n";
  json << "    \"shards\": " << kShards << ",\n";
  json << "    \"events\": " << multi.events << ",\n";
  json << "    \"seconds\": " << multi.seconds << ",\n";
  json << "    \"events_per_sec\": " << multi.events_per_sec << ",\n";
  json << "    \"epochs\": " << multi.epochs << "\n";
  json << "  },\n";
  json << "  \"retention\": {\n";
  json << "    \"events\": " << retention.events << ",\n";
  json << "    \"max_sealed_events\": " << retention.max_sealed_events
       << ",\n";
  json << "    \"peak_live_events\": " << retention.peak_live_events
       << ",\n";
  json << "    \"sealed\": " << retention.sealed << ",\n";
  json << "    \"tail\": " << retention.tail << ",\n";
  json << "    \"compacted\": " << retention.compacted << ",\n";
  json << "    \"seconds\": " << retention.seconds << ",\n";
  json << "    \"accounted\": " << (retention.accounted ? "true" : "false")
       << ",\n";
  json << "    \"bounded\": " << (retention.bounded ? "true" : "false")
       << "\n";
  json << "  },\n";
  json << "  \"identical\": " << (identical ? "true" : "false") << "\n";
  json << "}\n";

  write_or_print(json.str(), out_path);
  std::cerr << "1 shard: " << static_cast<std::uint64_t>(single.events_per_sec)
            << " events/sec; " << kShards << " shards: "
            << static_cast<std::uint64_t>(multi.events_per_sec)
            << " events/sec on " << cores << " core(s), "
            << (identical ? "identical" : "MISMATCH") << "; retention peak "
            << retention.peak_live_events << " live of "
            << retention.events << " ("
            << (retention.accounted ? "accounted" : "UNACCOUNTED") << ", "
            << (retention.bounded ? "bounded" : "UNBOUNDED") << ")\n";
  return identical && retention.accounted && retention.bounded ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool pr9 = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--pr9") {
      pr9 = true;
    } else {
      out_path = arg;
    }
  }
  return pr9 ? run_pr9(out_path) : run_pr8(out_path);
}
