#include "serve/replay.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"
#include "serve/server.hpp"

namespace hpcfail::serve {

namespace {

constexpr std::size_t kFlushBytes = 64 * 1024;

/// The latest wall offset a replay paces to, in seconds (about 32 years):
/// later ones would overflow the steady clock's integer ticks.
constexpr double kMaxPaceSeconds = 1e9;

ReplayOptions validated(ReplayOptions options) {
  if (options.port <= 0 || options.port > 65535) {
    throw ValidationError("replay port must be in [1, 65535]");
  }
  if (options.connections == 0) {
    throw ValidationError("replay connections must be positive");
  }
  if (options.speedup < 0.0) {
    throw ValidationError("replay speedup must be non-negative");
  }
  in_addr probe{};
  if (::inet_pton(AF_INET, options.host.c_str(), &probe) != 1) {
    throw ValidationError("invalid host address '" + options.host + "'");
  }
  return options;
}

int connect_to(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw IoError(std::string("cannot create replay socket: ") +
                  std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int saved = errno;
    ::close(fd);
    throw IoError("cannot connect to " + host + ":" + std::to_string(port) +
                  ": " + std::strerror(saved));
  }
  // Pacing wants each flushed batch on the wire now, not Nagle-delayed.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

ReplayStats replay_dataset(const trace::FailureDataset& dataset,
                           const ReplayOptions& options_in) {
  const ReplayOptions options = validated(options_in);
  const trace::ColumnsView records = dataset.records();
  const std::uint64_t count =
      options.limit > 0
          ? std::min<std::uint64_t>(options.limit, records.size())
          : records.size();

  ReplayStats stats;
  if (count == 0) return stats;

  std::vector<int> fds;
  std::vector<std::string> buffers(options.connections);
  fds.reserve(options.connections);
  for (std::size_t c = 0; c < options.connections; ++c) {
    fds.push_back(connect_to(options.host, options.port));
  }
  const auto close_all = [&fds] {
    for (const int fd : fds) ::close(fd);
    fds.clear();
  };

  const auto flush = [&](std::size_t c) {
    std::string& buffer = buffers[c];
    if (buffer.empty()) return;
    const std::size_t sent = send_fully(fds[c], buffer);
    if (sent < buffer.size()) {
      const int saved = errno;
      close_all();
      throw IoError("replay connection " + std::to_string(c) +
                    " broke mid-send: " + std::strerror(saved));
    }
    stats.bytes_sent += buffer.size();
    buffer.clear();
  };

  const Seconds first_start = records[0].start;
  const auto wall_base = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < count; ++i) {
    const trace::FailureRecord r = records[i];
    if (options.speedup > 0.0) {
      const double offset = std::min(
          seconds_between(first_start, r.start) / options.speedup,
          kMaxPaceSeconds);
      const auto due = wall_base + std::chrono::duration_cast<
                                       std::chrono::steady_clock::duration>(
                                       std::chrono::duration<double>(offset));
      if (due > std::chrono::steady_clock::now()) {
        // Put everything due so far on the wire before sleeping.
        for (std::size_t c = 0; c < buffers.size(); ++c) flush(c);
        std::this_thread::sleep_until(due);
      }
    }
    // Stable (system, node) hash: one node's events always share a
    // connection, preserving per-node order end to end.
    const std::size_t conn =
        (static_cast<std::size_t>(r.system_id) * 8191u +
         static_cast<std::size_t>(r.node_id)) %
        options.connections;
    options.format->format_line(r, buffers[conn]);
    buffers[conn] += '\n';
    ++stats.events_sent;
    if (buffers[conn].size() >= kFlushBytes) flush(conn);
  }
  for (std::size_t c = 0; c < buffers.size(); ++c) flush(c);
  close_all();

  stats.wall_seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - wall_base)
                           .count();
  stats.events_per_sec =
      stats.wall_seconds > 0.0
          ? static_cast<double>(stats.events_sent) / stats.wall_seconds
          : 0.0;
  // Records are in start order, so the unsigned difference is exact.
  stats.trace_span = static_cast<std::uint64_t>(records[count - 1].start) -
                     static_cast<std::uint64_t>(first_start);
  return stats;
}

}  // namespace hpcfail::serve
