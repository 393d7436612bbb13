#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "trace/adapters/adapter.hpp"

namespace hpcfail::serve {

namespace {

constexpr int kPollMillis = 100;
constexpr std::size_t kChunkBytes = 64 * 1024;
constexpr std::size_t kObserveBatch = 256;
constexpr std::size_t kMaxIngestThreads = 64;

[[noreturn]] void throw_errno(const std::string& what) {
  throw IoError(what + ": " + std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw_errno("cannot make socket non-blocking");
  }
}

int bound_port_of(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname failed");
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

/// Binds a listening TCP socket; returns the fd (caller owns).
int listen_on(const in_addr& host, int port, const char* label) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno(std::string("cannot create ") + label + " socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr = host;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno(std::string("cannot bind ") + label + " socket to port " +
                std::to_string(port));
  }
  if (::listen(fd, 64) < 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno(std::string("cannot listen on ") + label + " socket");
  }
  set_nonblocking(fd);
  return fd;
}

void close_if_open(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

/// One query parameter ("system=20") from a raw target string.
std::string query_param(const std::string& target, const std::string& key) {
  const std::size_t q = target.find('?');
  if (q == std::string::npos) return {};
  std::size_t pos = q + 1;
  while (pos < target.size()) {
    std::size_t amp = target.find('&', pos);
    if (amp == std::string::npos) amp = target.size();
    const std::string pair = target.substr(pos, amp - pos);
    const std::size_t eq = pair.find('=');
    if (eq != std::string::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
    pos = amp + 1;
  }
  return {};
}

/// `text`, the value of query parameter `key`, parsed by `parse`; a
/// ParseError names the parameter.
template <typename Parse>
auto parse_param(const char* key, const std::string& text, Parse parse) {
  try {
    return parse(text);
  } catch (const ParseError& e) {
    throw ParseError("parse error in parameter '" + std::string(key) +
                     "': " + e.what());
  }
}

/// Validates user-supplied options before any member construction, and
/// mirrors the ingest shard count into the LiveDataset partition count.
ServerOptions validated(ServerOptions options) {
  const auto valid_port = [](int p) { return p >= 0 && p <= 65535; };
  if (!valid_port(options.ingest_port) || !valid_port(options.http_port)) {
    throw ValidationError("port must be in [0, 65535]");
  }
  if (options.window_seconds <= 0) {
    throw ValidationError("window must be positive");
  }
  if (options.bucket_seconds <= 0) {
    throw ValidationError("bucket seconds must be positive");
  }
  if (options.max_buckets == 0) {
    throw ValidationError("max buckets must be positive");
  }
  if (options.ingest_threads == 0 ||
      options.ingest_threads > kMaxIngestThreads) {
    throw ValidationError("ingest threads must be in [1, 64]");
  }
  if (options.http_request_deadline_ms <= 0) {
    throw ValidationError("http request deadline must be positive");
  }
  in_addr probe{};
  if (::inet_pton(AF_INET, options.host.c_str(), &probe) != 1) {
    throw ValidationError("invalid host address '" + options.host + "'");
  }
  options.epoch.shards = options.ingest_threads;
  return options;
}

/// The wire format options.ingest_format names (empty = native CSV).
const trace::Adapter& ingest_format(const ServerOptions& options) {
  return options.ingest_format.empty()
             ? trace::native_format()
             : trace::adapter_for(options.ingest_format);
}

LiveAnalytics::Options analytics_options(const ServerOptions& options) {
  LiveAnalytics::Options aopts;
  aopts.bucket_seconds = options.bucket_seconds;
  aopts.max_buckets = options.max_buckets;
  return aopts;
}

/// After a failed accept: true when the process or system is out of
/// descriptors, counted as a refusal under `counter`. The caller then
/// leaves its listener out of the next poll round, which would otherwise
/// report the still-pending connection at once and spin.
bool out_of_descriptors(const char* counter) {
  if (errno != EMFILE && errno != ENFILE) return false;
  if (obs::enabled()) obs::registry().counter(counter).add(1);
  return true;
}

timeval to_timeval(std::chrono::milliseconds ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((ms.count() % 1000) * 1000);
  return tv;
}

}  // namespace

std::size_t send_fully(int fd, std::string_view data) noexcept {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;  // signal load must not truncate
    break;  // peer gone (EPIPE/ECONNRESET) or SO_SNDTIMEO expired (EAGAIN)
  }
  return sent;
}

struct Server::Connection {
  /// `format` is the wire format the connection's LineSource parses; see
  /// ServerOptions::ingest_format.
  explicit Connection(const trace::Adapter& format) : source(format) {}
  int fd = -1;
  trace::LineSource source;
  std::uint64_t rejected_seen = 0;  ///< counter watermark already reported
};

/// One ingest shard: the connections owned by one ingest thread, the
/// hand-off queue the acceptor (shard 0's thread) fills, and the
/// shard's ingest counts, whose sums are the daemon's totals.
struct Server::IngestShard {
  std::size_t index = 0;
  int notify_fds[2] = {-1, -1};  ///< wakes the shard when pending_ fills
  std::mutex pending_mutex;
  std::vector<int> pending;  ///< accepted fds not yet adopted
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> connections{0};
};

std::uint64_t Server::shard_total(
    std::atomic<std::uint64_t> IngestShard::*field) const noexcept {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += (shard.get()->*field).load(std::memory_order_acquire);
  }
  return total;
}

std::uint64_t Server::events_ingested() const noexcept {
  return shard_total(&IngestShard::accepted);
}

std::uint64_t Server::events_rejected() const noexcept {
  return shard_total(&IngestShard::rejected);
}

Server::Server(ServerOptions options)
    : options_(validated(std::move(options))),
      format_(&ingest_format(options_)),
      live_(options_.epoch),
      analytics_(analytics_options(options_)) {}

Server::Server(ServerOptions options, trace::FailureDataset seed)
    : options_(validated(std::move(options))),
      format_(&ingest_format(options_)),
      live_(std::move(seed), options_.epoch),
      analytics_(analytics_options(options_)) {
  // Replay the seed into the analytics windows; snapshot records are
  // start-sorted, so gap extraction sees them chronologically.
  const std::shared_ptr<const trace::FailureDataset> snap = live_.snapshot();
  for (const trace::FailureRecord& r : snap->records()) {
    analytics_.observe(r);
  }
}

Server::~Server() {
  stop();
  wait();
  close_if_open(stop_pipe_[0]);
  close_if_open(stop_pipe_[1]);
  close_if_open(ingest_fd_);
  close_if_open(http_fd_);
  for (const auto& shard : shards_) {
    close_if_open(shard->notify_fds[0]);
    close_if_open(shard->notify_fds[1]);
  }
}

void Server::start() {
  HPCFAIL_EXPECTS(!running_.load(std::memory_order_acquire),
                  "server already started");
  if (::pipe(stop_pipe_) < 0) throw_errno("cannot create stop pipe");
  set_nonblocking(stop_pipe_[0]);
  set_nonblocking(stop_pipe_[1]);

  in_addr host{};
  ::inet_pton(AF_INET, options_.host.c_str(), &host);  // validated in ctor
  ingest_fd_ = listen_on(host, options_.ingest_port, "ingest");
  bound_ingest_port_ = bound_port_of(ingest_fd_);
  http_fd_ = listen_on(host, options_.http_port, "http");
  bound_http_port_ = bound_port_of(http_fd_);

  shards_.clear();
  for (std::size_t s = 0; s < options_.ingest_threads; ++s) {
    auto shard = std::make_unique<IngestShard>();
    shard->index = s;
    if (::pipe(shard->notify_fds) < 0) {
      throw_errno("cannot create shard notify pipe");
    }
    set_nonblocking(shard->notify_fds[0]);
    set_nonblocking(shard->notify_fds[1]);
    shards_.push_back(std::move(shard));
  }

  if (obs::enabled()) {
    // Register the serve metrics eagerly so /metrics shows the full
    // schema (zeros included) from the first scrape.
    obs::Registry& reg = obs::registry();
    reg.counter("serve.events_ingested");
    reg.counter("serve.rejected_events");
    reg.counter("serve.bytes_ingested");
    reg.counter("serve.connections");
    reg.counter("serve.connections_refused{port=ingest}");
    reg.counter("serve.connections_refused{port=http}");
    reg.counter("serve.http_requests");
    reg.counter("serve.http_request_timeouts");
    reg.counter("serve.http_truncated_responses");
    reg.counter("ingest.compacted_events");
    reg.gauge("serve.events_per_sec");
    reg.gauge("serve.ingest_threads")
        .set(static_cast<double>(options_.ingest_threads));
    reg.gauge("serve.epoch_lag_records");
    reg.gauge("serve.window_staleness_seconds");
  }

  rate_last_time_ = std::chrono::steady_clock::now();
  last_event_ns_.store(rate_last_time_.time_since_epoch().count(),
                       std::memory_order_release);
  running_.store(true, std::memory_order_release);
  stop_requested_.store(false, std::memory_order_release);
  live_ingest_threads_.store(shards_.size(), std::memory_order_release);
  ingest_threads_.clear();
  for (const auto& shard : shards_) {
    IngestShard* s = shard.get();
    ingest_threads_.emplace_back([this, s] { ingest_loop(*s); });
  }
  http_thread_ = std::thread([this] { http_loop(); });
}

void Server::stop() noexcept {
  stop_requested_.store(true, std::memory_order_release);
  if (stop_pipe_[1] >= 0) {
    const char byte = 1;
    // Async-signal-safe; short writes/EAGAIN are fine (any byte wakes
    // every loop, and they also poll stop_requested_ on a timeout).
    [[maybe_unused]] const auto n = ::write(stop_pipe_[1], &byte, 1);
  }
}

void Server::wait() {
  for (std::thread& t : ingest_threads_) {
    if (t.joinable()) t.join();
  }
  if (http_thread_.joinable()) http_thread_.join();
  running_.store(false, std::memory_order_release);
}

void Server::drain_source(IngestShard& shard, trace::Source& source,
                          std::uint64_t& rejected_seen) {
  // live_ appends run lock-free for readers (the seal publishes behind
  // its own pointer swap), so only the analytics windows need the mutex —
  // taken per small batch, never across a seal.
  trace::FailureRecord r;
  std::vector<trace::FailureRecord> batch;
  batch.reserve(kObserveBatch);
  std::uint64_t accepted = 0;
  const auto flush = [&] {
    if (batch.empty()) return;
    std::lock_guard<std::mutex> lock(analytics_mutex_);
    for (const trace::FailureRecord& rec : batch) analytics_.observe(rec);
    batch.clear();
  };
  while (source.next(r) == trace::SourceStatus::event) {
    live_.append(shard.index, r);
    batch.push_back(r);
    ++accepted;
    if (batch.size() >= kObserveBatch) flush();
  }
  flush();
  if (accepted > 0) {
    shard.accepted.fetch_add(accepted, std::memory_order_acq_rel);
    last_event_ns_.store(
        std::chrono::steady_clock::now().time_since_epoch().count(),
        std::memory_order_release);
    if (obs::enabled()) {
      obs::registry().counter("serve.events_ingested").add(accepted);
    }
  }
  const std::uint64_t rejected = source.counters().rejected;
  if (rejected > rejected_seen) {
    const std::uint64_t delta = rejected - rejected_seen;
    rejected_seen = rejected;
    shard.rejected.fetch_add(delta, std::memory_order_acq_rel);
    if (obs::enabled()) {
      obs::registry().counter("serve.rejected_events").add(delta);
    }
  }
}

void Server::ingest_chunk(IngestShard& shard, Connection& conn,
                          std::string_view bytes) {
  conn.source.feed(bytes);
  bytes_ingested_.fetch_add(bytes.size(), std::memory_order_acq_rel);
  if (obs::enabled()) {
    obs::registry().counter("serve.bytes_ingested").add(bytes.size());
  }
  drain_source(shard, conn.source, conn.rejected_seen);
}

void Server::update_gauges() {
  const auto now = std::chrono::steady_clock::now();
  const double dt =
      std::chrono::duration<double>(now - rate_last_time_).count();
  if (dt < 1.0) return;
  const std::uint64_t total = events_ingested();
  const double rate = static_cast<double>(total - rate_last_events_) / dt;
  rate_last_events_ = total;
  rate_last_time_ = now;
  if (obs::enabled()) {
    const auto last_event = std::chrono::steady_clock::time_point(
        std::chrono::steady_clock::duration(
            last_event_ns_.load(std::memory_order_acquire)));
    obs::Registry& reg = obs::registry();
    reg.gauge("serve.events_per_sec").set(rate);
    reg.gauge("serve.epoch_lag_records")
        .set(static_cast<double>(live_.tail_size()));
    reg.gauge("serve.window_staleness_seconds")
        .set(std::chrono::duration<double>(now - last_event).count());
  }
}

void Server::compact_analytics_to_horizon() {
  // Trims the sliding analytics windows to the dataset's retention
  // horizon so the two surfaces agree on what history exists. Runs on
  // shard 0's thread only.
  if (live_.compacted_events() == 0) return;
  const Seconds horizon = live_.retention_horizon();
  if (horizon == analytics_horizon_) return;
  std::lock_guard<std::mutex> lock(analytics_mutex_);
  analytics_.compact_before(horizon);
  analytics_horizon_ = horizon;
}

bool Server::accept_ingest_connections() {
  while (true) {
    const int client = ::accept(ingest_fd_, nullptr, nullptr);
    if (client < 0) {
      // EAGAIN: accepted everything pending.
      return out_of_descriptors("serve.connections_refused{port=ingest}");
    }
    set_nonblocking(client);
    IngestShard& target = *shards_[next_shard_rr_ % shards_.size()];
    ++next_shard_rr_;
    {
      std::lock_guard<std::mutex> lock(target.pending_mutex);
      target.pending.push_back(client);
    }
    const char byte = 1;
    [[maybe_unused]] const auto n =
        ::write(target.notify_fds[1], &byte, 1);
    target.connections.fetch_add(1, std::memory_order_acq_rel);
    if (obs::enabled()) {
      obs::registry().counter("serve.connections").add(1);
    }
  }
}

void Server::ingest_loop(IngestShard& shard) {
  std::vector<std::unique_ptr<Connection>> conns;
  std::unique_ptr<trace::TailSource> tail;
  std::uint64_t tail_rejected_seen = 0;
  const bool acceptor = shard.index == 0;
  if (acceptor && !options_.tail_path.empty()) {
    tail = std::make_unique<trace::TailSource>(options_.tail_path,
                                               /*start_offset=*/0, *format_);
  }

  std::vector<pollfd> fds;
  // Out of descriptors: the listener sits out one poll round as fd -1,
  // which poll skips.
  bool listener_paused = false;
  while (!stop_requested_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({stop_pipe_[0], POLLIN, 0});
    fds.push_back({shard.notify_fds[0], POLLIN, 0});
    if (acceptor) {
      fds.push_back({listener_paused ? -1 : ingest_fd_, POLLIN, 0});
    }
    const std::size_t conn_base = fds.size();
    for (const auto& conn : conns) fds.push_back({conn->fd, POLLIN, 0});

    const int ready = ::poll(fds.data(), fds.size(), kPollMillis);
    if (ready < 0 && errno != EINTR) break;
    if (stop_requested_.load(std::memory_order_acquire)) break;

    // One chunk per connection per round; fds[i] pairs with
    // conns[i - conn_base] because conns is not mutated until below.
    char buffer[kChunkBytes];
    const std::size_t polled = conns.size();
    for (std::size_t i = 0; i < polled; ++i) {
      Connection& conn = *conns[i];
      const pollfd& pfd = fds[conn_base + i];
      if ((pfd.revents & (POLLIN | POLLHUP)) == 0) continue;
      const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
      if (n > 0) {
        ingest_chunk(shard, conn,
                     std::string_view(buffer, static_cast<std::size_t>(n)));
      } else if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) {
        conn.source.finish();
        ingest_chunk(shard, conn, std::string_view());
        ::close(conn.fd);
        conn.fd = -1;
      }
    }
    std::erase_if(conns, [](const std::unique_ptr<Connection>& c) {
      return c->fd < 0;
    });

    // Adopt connections the acceptor handed to this shard, then (shard
    // 0) accept new ones — strictly after the recv pass so the fds/
    // conns pairing above stays valid.
    if ((fds[1].revents & POLLIN) != 0) {
      char drain[256];
      while (::read(shard.notify_fds[0], drain, sizeof(drain)) > 0) {
      }
    }
    adopt_pending(shard, conns);
    if (acceptor) {
      listener_paused =
          (fds[2].revents & POLLIN) != 0 && accept_ingest_connections();
      if (tail) drain_source(shard, *tail, tail_rejected_seen);
      update_gauges();
      compact_analytics_to_horizon();
    }

    if (options_.max_events > 0 && events_ingested() >= options_.max_events) {
      stop();
      break;
    }
  }

  for (const auto& conn : conns) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  conns.clear();
  // The last ingest thread out runs the final seal so post-run
  // snapshots (CLI metrics dump, tests) see every accepted event in
  // the indexed dataset, across all shards.
  if (live_ingest_threads_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    live_.seal();
    compact_analytics_to_horizon();
    if (obs::enabled()) {
      obs::registry().gauge("serve.epoch_lag_records")
          .set(static_cast<double>(live_.tail_size()));
    }
  }
}

void Server::adopt_pending(IngestShard& shard,
                           std::vector<std::unique_ptr<Connection>>& conns) {
  std::vector<int> adopted;
  {
    std::lock_guard<std::mutex> lock(shard.pending_mutex);
    adopted.swap(shard.pending);
  }
  for (const int fd : adopted) {
    auto conn = std::make_unique<Connection>(*format_);
    conn->fd = fd;
    conns.push_back(std::move(conn));
  }
}

std::string Server::stats_json() const {
  std::string out = "{";
  out += "\"events_ingested\":" + std::to_string(events_ingested());
  out += ",\"events_rejected\":" + std::to_string(events_rejected());
  out += ",\"bytes_ingested\":" +
         std::to_string(bytes_ingested_.load(std::memory_order_acquire));
  out += ",\"connections\":" +
         std::to_string(shard_total(&IngestShard::connections));
  out += ",\"http_requests\":" + std::to_string(http_requests());
  out += ",\"http_request_timeouts\":" +
         std::to_string(http_request_timeouts());
  out += ",\"http_truncated_responses\":" +
         std::to_string(http_truncated_responses());
  out += ",\"epoch\":" + std::to_string(live_.epoch());
  out += ",\"sealed_records\":" + std::to_string(live_.sealed_size());
  out += ",\"tail_records\":" + std::to_string(live_.tail_size());
  out += ",\"ingest_threads\":" + std::to_string(options_.ingest_threads);
  out += ",\"ingest_format\":\"";
  out += format_->name();
  out += '"';
  out += ",\"compacted_events\":" + std::to_string(live_.compacted_events());
  out += ",\"retention_horizon\":" +
         std::to_string(live_.compacted_events() > 0
                            ? live_.retention_horizon()
                            : 0);
  out += ",\"shards\":[";
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const IngestShard& shard = *shards_[s];
    if (s != 0) out += ',';
    out += "{\"accepted\":" +
           std::to_string(shard.accepted.load(std::memory_order_acquire));
    out += ",\"rejected\":" +
           std::to_string(shard.rejected.load(std::memory_order_acquire));
    out += ",\"connections\":" +
           std::to_string(shard.connections.load(std::memory_order_acquire));
    out += "}";
  }
  out += "],\"systems\":[";
  {
    std::lock_guard<std::mutex> lock(analytics_mutex_);
    const std::vector<int> ids = analytics_.system_ids();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i != 0) out += ',';
      out += std::to_string(ids[i]);
    }
    out += "],\"analytics_dropped_events\":" +
           std::to_string(analytics_.dropped_events());
  }
  out += "}";
  return out;
}

std::string Server::handle_request(const std::string& target, int& status) {
  status = 200;
  const std::string path = target.substr(0, target.find('?'));
  if (path == "/healthz") return "ok\n";
  if (path == "/stats") return stats_json();
  if (path == "/metrics") {
    return obs::to_prometheus(obs::registry().snapshot());
  }
  if (path == "/shutdown") {
    stop();
    return "{\"shutting_down\":true}";
  }
  if (path == "/report") {
    try {
      const std::string system_text = query_param(target, "system");
      if (system_text.empty()) {
        status = 400;
        return "{\"error\":\"missing required parameter 'system'\"}";
      }
      // Ids arrive as int64 text; narrowing one outside the valid id
      // range would alias another system (2^32 + 1 -> 1).
      const std::int64_t system_arg =
          parse_param("system", system_text, parse_i64);
      if (system_arg < 1 || system_arg > std::numeric_limits<int>::max()) {
        status = 400;
        return "{\"error\":\"parameter 'system' must be in [1, " +
               std::to_string(std::numeric_limits<int>::max()) + "]\"}";
      }
      const int system_id = static_cast<int>(system_arg);
      Seconds window = options_.window_seconds;
      const std::string hours = query_param(target, "window_hours");
      if (!hours.empty()) {
        const double window_seconds =
            parse_param("window_hours", hours, parse_double) *
            static_cast<double>(kSecondsPerHour);
        // Converting a double outside Seconds' range is undefined.
        constexpr double kSecondsLimit = 0x1p63;
        if (!(std::abs(window_seconds) < kSecondsLimit)) {
          status = 400;
          return "{\"error\":\"parameter 'window_hours' is out of range\"}";
        }
        window = static_cast<Seconds>(window_seconds);
      }
      const std::string seconds = query_param(target, "window_seconds");
      if (!seconds.empty()) {
        window = parse_param("window_seconds", seconds, parse_i64);
      }
      if (window <= 0) {
        status = 400;
        return "{\"error\":\"window must be positive\"}";
      }
      WindowReport report;
      {
        // Every ingest shard's observe flush waits on this lock, so it
        // covers the analytics reads only: the ledger copy and the
        // rendering below run outside it.
        std::lock_guard<std::mutex> lock(analytics_mutex_);
        const std::vector<int> ids = analytics_.system_ids();
        if (std::find(ids.begin(), ids.end(), system_id) == ids.end()) {
          status = 404;
          return "{\"error\":\"unknown system " + std::to_string(system_id) +
                 "\"}";
        }
        report = analytics_.report(system_id, window);
      }
      // Compacted-ledger section: events retention dropped past the
      // horizon still show up as per-cause repair SuffStats, so /report
      // accounts for the full ingested history. The ledger's (system,
      // cause) cells come in ascending cause; compaction_cells() is safe
      // while ingest runs.
      for (const trace::CompactionCell& cell : live_.compaction_cells()) {
        if (cell.system_id != system_id) continue;
        report.compacted_events += cell.repair_minutes.n;
        report.compacted_by_cause.push_back({cell.cause, cell.repair_minutes});
      }
      return to_json(report);
    } catch (const ParseError& e) {
      status = 400;
      // The message quotes request text, so it is escaped.
      return "{\"error\":\"" + json_escape(e.what()) + "\"}";
    }
  }
  status = 404;
  return "{\"error\":\"not found\"}";
}

void Server::http_loop() {
  const auto request_budget =
      std::chrono::milliseconds(options_.http_request_deadline_ms);
  std::vector<pollfd> fds;
  bool listener_paused = false;  // as in ingest_loop
  while (!stop_requested_.load(std::memory_order_acquire)) {
    fds.clear();
    fds.push_back({stop_pipe_[0], POLLIN, 0});
    fds.push_back({listener_paused ? -1 : http_fd_, POLLIN, 0});
    listener_paused = false;
    const int ready = ::poll(fds.data(), fds.size(), kPollMillis);
    if (ready < 0 && errno != EINTR) break;
    if (stop_requested_.load(std::memory_order_acquire)) break;
    if (ready <= 0 || (fds[1].revents & POLLIN) == 0) continue;

    while (true) {
      const int client = ::accept(http_fd_, nullptr, nullptr);
      if (client < 0) {
        listener_paused =
            out_of_descriptors("serve.connections_refused{port=http}");
        break;
      }
      // Small blocking reads under an *overall* per-request deadline:
      // SO_RCVTIMEO alone bounds each recv, not the request, so a
      // client trickling one byte per timeout would otherwise hold the
      // sole HTTP thread forever (slow-loris) and starve /healthz.
      const auto deadline = std::chrono::steady_clock::now() + request_budget;
      std::string request;
      char buffer[4096];
      bool timed_out = false;
      while (request.find("\r\n") == std::string::npos &&
             request.size() < 16 * 1024) {
        const auto remaining =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now());
        if (remaining.count() <= 0) {
          timed_out = true;
          break;
        }
        const timeval tv = to_timeval(remaining);
        ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        const ssize_t n = ::recv(client, buffer, sizeof(buffer), 0);
        if (n > 0) {
          request.append(buffer, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 &&
            (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
          // Interrupted, or the per-recv slice of the deadline expired:
          // loop back so the overall deadline check decides.
          continue;
        }
        break;  // closed or a real error
      }

      std::string body;
      std::string content_type = "application/json";
      int status = 200;
      const std::size_t line_end = request.find("\r\n");
      if (line_end == std::string::npos) {
        if (timed_out) {
          status = 408;
          body = "{\"error\":\"request deadline exceeded\"}";
          http_timeouts_.fetch_add(1, std::memory_order_acq_rel);
          if (obs::enabled()) {
            obs::registry().counter("serve.http_request_timeouts").add(1);
          }
        } else {
          status = 400;
          body = "{\"error\":\"malformed request\"}";
        }
      } else {
        const std::vector<std::string> parts =
            split(request.substr(0, line_end), ' ');
        if (parts.size() < 2 || parts[0] != "GET") {
          status = 405;
          body = "{\"error\":\"only GET is supported\"}";
        } else {
          body = handle_request(parts[1], status);
          const std::string path = parts[1].substr(0, parts[1].find('?'));
          if (path == "/metrics" || path == "/healthz") {
            content_type = "text/plain; charset=utf-8";
          }
        }
      }

      const char* reason = status == 200   ? "OK"
                           : status == 400 ? "Bad Request"
                           : status == 404 ? "Not Found"
                           : status == 405 ? "Method Not Allowed"
                           : status == 408 ? "Request Timeout"
                                           : "Error";
      std::string response = "HTTP/1.0 " + std::to_string(status) + " " +
                             reason + "\r\nContent-Type: " + content_type +
                             "\r\nContent-Length: " +
                             std::to_string(body.size()) +
                             "\r\nConnection: close\r\n\r\n" + body;
      // Bound the write side too, then retry interrupted sends so a
      // burst of signals cannot silently truncate /metrics or /report.
      const timeval send_tv = to_timeval(request_budget);
      ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &send_tv,
                   sizeof(send_tv));
      const std::size_t sent = send_fully(client, response);
      if (sent < response.size()) {
        http_truncated_.fetch_add(1, std::memory_order_acq_rel);
        if (obs::enabled()) {
          obs::registry().counter("serve.http_truncated_responses").add(1);
        }
      }
      ::close(client);
      http_requests_.fetch_add(1, std::memory_order_acq_rel);
      if (obs::enabled()) {
        obs::registry().counter("serve.http_requests").add(1);
      }
      if (stop_requested_.load(std::memory_order_acquire)) break;
    }
  }
}

}  // namespace hpcfail::serve
