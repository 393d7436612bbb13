// Historical-trace replay client (`hpcfail replay`): feeds a recorded
// failure trace through a running daemon's TCP line-protocol ingest at a
// scaled wall clock.
//
// Replay walks the trace in global start order and assigns each record
// to one of `connections` persistent TCP connections by a stable
// (system, node) hash, so every node's events travel one connection in
// order — the daemon's per-connection LineSources then see exactly the
// per-node sequences the trace recorded, while multiple connections
// exercise the server's sharded ingest the way independent producers
// would. With speedup S, an event recorded T seconds after the trace
// start is sent S times sooner (wall clock = trace clock / S); speedup 0
// streams as fast as TCP accepts the bytes (the throughput-bench mode).
//
// Pacing is sleep-until against absolute deadlines (start + offset/S),
// so scheduling jitter does not accumulate across a long replay.
#pragma once

#include <cstdint>
#include <string>

#include "trace/adapters/adapter.hpp"
#include "trace/dataset.hpp"

namespace hpcfail::serve {

struct ReplayOptions {
  std::string host = "127.0.0.1";
  int port = 0;               ///< daemon ingest port (required)
  double speedup = 0.0;       ///< trace-seconds per wall-second; 0 = max rate
  std::size_t connections = 1;
  std::uint64_t limit = 0;    ///< replay at most N events (0 = whole trace)
  /// Wire format: each record is sent as `format->format_line(...)`,
  /// matching a daemon started with the same --format. Must outlive the
  /// call (the format singletons do).
  const trace::Adapter* format = &trace::native_format();
};

struct ReplayStats {
  std::uint64_t events_sent = 0;
  std::uint64_t bytes_sent = 0;
  double wall_seconds = 0.0;
  double events_per_sec = 0.0;
  /// Last minus first replayed start, in seconds: exact even where the
  /// two starts lie more than 2^63 - 1 seconds apart.
  std::uint64_t trace_span = 0;
};

/// Replays `dataset` per `options`. Blocks until every event has been
/// written and all connections are closed (the bytes are then in the
/// daemon's socket buffers or beyond — pair with polling /stats to wait
/// for full ingestion). Throws ValidationError on bad options and
/// IoError when a connection cannot be established or breaks mid-send.
ReplayStats replay_dataset(const trace::FailureDataset& dataset,
                           const ReplayOptions& options);

}  // namespace hpcfail::serve
