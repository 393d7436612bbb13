// The `hpcfail serve` daemon: streaming ingest + live query serving.
//
// N ingest threads + one HTTP thread, two listening sockets:
//
//   * each ingest thread owns one shard: a partition of the TCP
//     connections speaking the line protocol (one record per line in the
//     --format schema, native CSV rows by default; see
//     trace/source.hpp), fed through per-connection trace::LineSources
//     into that shard's tail of the shared trace::LiveDataset
//     (incremental index, see trace/ingest.hpp) and the shared
//     serve::LiveAnalytics (windowed moment cells, short mutex per
//     small batch). Shard 0 additionally owns the accept loop — new
//     connections are handed round-robin to the shards over per-shard
//     notify pipes — plus the optional appended-file tail
//     (trace::TailSource) and the once-per-second gauge refresh.
//     Malformed lines are rejected and counted (serve.rejected_events,
//     and per shard in /stats) — one bad producer cannot take the
//     daemon down. Seal-time merges run on whichever ingest thread
//     trips the rebuild threshold; the sealed snapshot is bit-identical
//     to a from-scratch build at any --ingest-threads count (the
//     LiveDataset determinism contract).
//
//   * the HTTP thread serves many concurrent readers a minimal HTTP/1.0
//     GET surface: /healthz, /stats (ingest accounting JSON), /report?
//     system=N&window_hours=H (windowed moments + streaming FitReport
//     JSON), /metrics (the src/obs Prometheus exporter over the live
//     registry) and /shutdown. Reports are computed from the analytics
//     cells under a short mutex — never from a dataset rebuild, so
//     readers do not block on ingest. Every request is bounded by an
//     overall deadline (http_request_deadline_ms), not just a per-read
//     timeout — a client trickling one byte per 1.9s cannot hold the
//     thread and starve /healthz — and response writes retry
//     interrupted sends (send_fully) so signal load cannot silently
//     truncate /metrics or /report bodies.
//
// Retention: when the LiveDataset options enable a horizon
// (retain_seconds / max_sealed_events), raw events older than the
// horizon are compacted into per-(system, node, cause) SuffStats at
// seal time; /stats reports compacted_events and retention_horizon,
// and the analytics windows are trimmed to the same horizon.
//
// Backpressure: each ingest thread reads at most one chunk per
// connection per poll round and appends synchronously, so a producer
// that outruns the daemon is throttled by TCP flow control (the socket
// buffer fills and the producer's write blocks) rather than by
// unbounded queueing — memory stays bounded by the tails + one partial
// line per connection (and by the retention policy when enabled).
//
// stop() is async-signal-safe (one write to a self-pipe), so the CLI
// installs it directly as its SIGINT/SIGTERM handler.
//
// Error taxonomy (consistent with the CLI's 0/1/2 contract): socket and
// bind failures throw IoError; invalid options throw ValidationError;
// malformed event lines never throw — they reject-and-count.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/analytics.hpp"
#include "trace/dataset.hpp"
#include "trace/ingest.hpp"
#include "trace/source.hpp"

namespace hpcfail::serve {

/// Writes all of `data` to a connected socket, retrying sends
/// interrupted by signals (EINTR). Returns the bytes actually written —
/// short only when the peer is gone or a send timeout (SO_SNDTIMEO)
/// expired. Exposed for the truncation regression tests.
std::size_t send_fully(int fd, std::string_view data) noexcept;

struct ServerOptions {
  std::string host = "127.0.0.1";
  int ingest_port = 0;  ///< 0 = ephemeral (bound port via ingest_port())
  int http_port = 0;    ///< 0 = ephemeral
  Seconds window_seconds = 24 * kSecondsPerHour;  ///< default /report window
  Seconds bucket_seconds = kSecondsPerHour;
  std::size_t max_buckets = 24 * 14;
  /// Ingest shard count. Mirrored into epoch.shards (the LiveDataset
  /// partition count) by the Server constructor.
  std::size_t ingest_threads = 1;
  trace::LiveDataset::Options epoch;  ///< seal + retention policy
  std::string tail_path;              ///< optional appended-file to follow
  /// Wire format for ingested lines: empty = the native CSV row format,
  /// otherwise a registered adapter name (trace/adapters/adapter.hpp).
  /// Applies to every ingest connection and the tailed file alike.
  /// Unknown names throw ValidationError at construction, which resolves
  /// the format once.
  std::string ingest_format;
  /// Stop automatically after this many accepted events (0 = run until
  /// stop()/shutdown). Lets smoke tests bound a run without a race.
  std::uint64_t max_events = 0;
  /// Overall wall-clock budget for reading one HTTP request, from
  /// accept to a complete request line.
  int http_request_deadline_ms = 2000;
};

class Server {
 public:
  /// Validates options; does not bind yet. Throws ValidationError on an
  /// invalid port/window/bucket/thread configuration.
  explicit Server(ServerOptions options);
  /// Same, with the dataset and analytics pre-seeded from `seed`.
  Server(ServerOptions options, trace::FailureDataset seed);
  ~Server();  ///< stop() + join

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds both sockets and starts the ingest and HTTP threads. Throws
  /// IoError when a socket cannot be created or bound.
  void start();

  /// Requests shutdown; async-signal-safe (a single self-pipe write).
  void stop() noexcept;

  /// Blocks until all threads have exited.
  void wait();

  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Bound ports (valid after start(); ephemeral requests resolve here).
  int ingest_port() const noexcept { return bound_ingest_port_; }
  int http_port() const noexcept { return bound_http_port_; }

  std::uint64_t events_ingested() const noexcept {
    return events_ingested_.load(std::memory_order_acquire);
  }
  std::uint64_t events_rejected() const noexcept {
    return events_rejected_.load(std::memory_order_acquire);
  }
  std::uint64_t http_requests() const noexcept {
    return http_requests_.load(std::memory_order_acquire);
  }
  /// HTTP requests dropped at the overall per-request deadline.
  std::uint64_t http_request_timeouts() const noexcept {
    return http_timeouts_.load(std::memory_order_acquire);
  }
  /// Responses cut short by a dead peer or send timeout.
  std::uint64_t http_truncated_responses() const noexcept {
    return http_truncated_.load(std::memory_order_acquire);
  }

  /// The live dataset. Snapshot/epoch/size/compaction accessors are
  /// safe while running; everything else only after wait() returns.
  const trace::LiveDataset& dataset() const noexcept { return live_; }

 private:
  struct Connection;
  struct IngestShard;

  void ingest_loop(IngestShard& shard);
  /// Accepts every pending ingest connection; true when it stopped on
  /// descriptor exhaustion (see out_of_descriptors in server.cpp).
  bool accept_ingest_connections();
  void adopt_pending(IngestShard& shard,
                     std::vector<std::unique_ptr<Connection>>& conns);
  void http_loop();
  void ingest_chunk(IngestShard& shard, Connection& conn,
                    std::string_view bytes);
  void drain_source(IngestShard& shard, trace::Source& source);
  void update_gauges();
  void compact_analytics_to_horizon();
  std::string handle_request(const std::string& target, int& status);
  std::string stats_json() const;

  ServerOptions options_;
  /// Resolved from options_.ingest_format; the format singletons outlive
  /// the server.
  const trace::Adapter* format_;
  trace::LiveDataset live_;
  LiveAnalytics analytics_;
  /// Guards analytics_ and the rejected-line bookkeeping shared between
  /// the ingest loops (writes) and /report, /stats (reads).
  mutable std::mutex analytics_mutex_;

  std::vector<std::unique_ptr<IngestShard>> shards_;
  std::vector<std::thread> ingest_threads_;
  std::thread http_thread_;
  std::atomic<std::size_t> live_ingest_threads_{0};
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  int stop_pipe_[2] = {-1, -1};  ///< self-pipe; write side used by stop()
  int ingest_fd_ = -1;
  int http_fd_ = -1;
  int bound_ingest_port_ = 0;
  int bound_http_port_ = 0;

  std::atomic<std::uint64_t> events_ingested_{0};
  std::atomic<std::uint64_t> events_rejected_{0};
  std::atomic<std::uint64_t> bytes_ingested_{0};
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> http_requests_{0};
  std::atomic<std::uint64_t> http_timeouts_{0};
  std::atomic<std::uint64_t> http_truncated_{0};

  /// events/sec gauge + analytics-compaction state (shard 0 only).
  std::uint64_t rate_last_events_ = 0;
  std::chrono::steady_clock::time_point rate_last_time_;
  std::atomic<std::chrono::steady_clock::time_point::rep> last_event_ns_{0};
  Seconds analytics_horizon_ = std::numeric_limits<Seconds>::min();
  std::uint64_t next_shard_rr_ = 0;
};

}  // namespace hpcfail::serve
