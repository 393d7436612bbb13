#include "sim/campaign.hpp"

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <numeric>
#include <queue>
#include <span>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace hpcfail::sim {

namespace {

// ---------------------------------------------------------------------
// Spec fingerprinting: FNV-1a over a canonical byte walk of the spec.
// Renewal distributions contribute their describe() string — the full
// printed parameterization — which is plenty to tell two specs apart.

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void hash_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
}

void hash_u64(std::uint64_t& h, std::uint64_t v) { hash_bytes(h, &v, 8); }

void hash_double(std::uint64_t& h, double v) {
  hash_u64(h, std::bit_cast<std::uint64_t>(v));
}

void hash_string(std::uint64_t& h, const std::string& s) {
  hash_u64(h, s.size());
  hash_bytes(h, s.data(), s.size());
}

std::uint64_t fingerprint_spec(const CampaignSpec& spec) {
  std::uint64_t h = kFnvOffset;
  hash_u64(h, 1);  // fingerprint format version
  hash_u64(h, spec.seed);
  hash_u64(h, spec.runs_per_cell);
  hash_u64(h, spec.ci.replicates);
  hash_double(h, spec.ci.confidence);
  hash_u64(h, spec.scenarios.size());
  for (const CampaignScenario& s : spec.scenarios) {
    hash_string(h, s.name);
    hash_u64(h, s.node_count);
    hash_double(h, s.horizon_seconds);
    hash_u64(h, s.repair_concurrency);
    hash_u64(h, static_cast<std::uint64_t>(s.faults.kind));
    if (s.faults.kind == FaultModelKind::scripted) {
      hash_u64(h, s.faults.scripted.size());
      for (const InjectedFault& f : s.faults.scripted) {
        hash_double(h, f.time);
        hash_u64(h, static_cast<std::uint64_t>(static_cast<std::int64_t>(f.node)));
        hash_double(h, f.repair_seconds);
      }
    } else {
      // Fields added after format version 1 enter only when set, so every
      // older spec (and its saved checkpoints) keeps its fingerprint.
      if (s.faults.renewal.size() != 1) hash_u64(h, s.faults.renewal.size());
      for (const RenewalPair& pair : s.faults.renewal) {
        hash_string(h, pair.interarrival->describe());
        hash_string(h, pair.repair ? pair.repair->describe()
                                   : std::string("none"));
      }
    }
    hash_u64(h, static_cast<std::uint64_t>(s.job_width));
    hash_double(h, s.job_work_seconds);
    hash_u64(h, s.job_count);
    hash_double(h, s.checkpoint_cost);
    hash_double(h, s.restart_cost);
    if (s.max_concurrent_jobs != 0) {
      hash_string(h, "max_concurrent_jobs");
      hash_u64(h, s.max_concurrent_jobs);
    }
  }
  hash_u64(h, spec.policies.size());
  for (const CampaignPolicy& p : spec.policies) {
    hash_string(h, p.name);
    hash_u64(h, static_cast<std::uint64_t>(p.placement));
    hash_double(h, p.checkpoint_interval);
    if (p.hazard_aware) {
      hash_string(h, "hazard_aware");
      hash_double(h, p.hazard_aware->min_interval);
      hash_double(h, p.hazard_aware->max_interval);
    }
  }
  return h;
}

/// Bounds a hazard-aware cell's segment table (8 MiB): a segment is at
/// least min_interval long, so a job may span at most this many of them.
constexpr double kMaxHazardAwareSegments = 1 << 20;

/// A cost, time or repair the engine adds to its clock: an infinite one
/// would reach the results and the summaries.
bool finite_non_negative(double v) { return v >= 0.0 && std::isfinite(v); }

void validate_spec(const CampaignSpec& spec) {
  HPCFAIL_EXPECTS(!spec.scenarios.empty(),
                  "campaign needs at least one scenario");
  HPCFAIL_EXPECTS(!spec.policies.empty(), "campaign needs at least one policy");
  HPCFAIL_EXPECTS(spec.runs_per_cell > 0,
                  "campaign needs at least one run per cell");
  std::vector<std::string> names;
  for (const CampaignScenario& s : spec.scenarios) {
    HPCFAIL_EXPECTS(!s.name.empty(), "scenario names must be non-empty");
    HPCFAIL_EXPECTS(std::find(names.begin(), names.end(), s.name) ==
                        names.end(),
                    "scenario names must be unique within a campaign");
    names.push_back(s.name);
    HPCFAIL_EXPECTS(s.node_count > 0, "scenario needs at least one node");
    HPCFAIL_EXPECTS(s.job_count > 0, "scenario needs at least one job");
    HPCFAIL_EXPECTS(s.job_work_seconds > 0.0 &&
                        std::isfinite(s.job_work_seconds),
                    "job work must be positive and finite");
    HPCFAIL_EXPECTS(s.job_width >= 1 &&
                        static_cast<std::size_t>(s.job_width) <= s.node_count,
                    "job width must fit the cluster");
    HPCFAIL_EXPECTS(finite_non_negative(s.checkpoint_cost) &&
                        finite_non_negative(s.restart_cost),
                    "checkpoint/restart costs must be non-negative and finite");
    if (s.faults.kind == FaultModelKind::scripted) {
      double last = 0.0;
      for (const InjectedFault& f : s.faults.scripted) {
        HPCFAIL_EXPECTS(f.time >= last && std::isfinite(f.time),
                        "scripted faults must be finite and time-ascending");
        HPCFAIL_EXPECTS(f.node >= 0 &&
                            static_cast<std::size_t>(f.node) < s.node_count,
                        "scripted fault node out of range");
        HPCFAIL_EXPECTS(finite_non_negative(f.repair_seconds),
                        "scripted repair must be non-negative and finite");
        last = f.time;
      }
    } else {
      const std::size_t pairs = s.faults.renewal.size();
      HPCFAIL_EXPECTS(pairs == 1 || pairs == s.node_count,
                      "renewal scenario needs one interarrival distribution "
                      "for all nodes or one per node");
      for (const RenewalPair& pair : s.faults.renewal) {
        HPCFAIL_EXPECTS(pair.interarrival != nullptr,
                        "renewal scenario needs an interarrival distribution");
      }
      HPCFAIL_EXPECTS(s.horizon_seconds > 0.0,
                      "renewal scenario needs a positive horizon");
    }
  }
  names.clear();
  for (const CampaignPolicy& p : spec.policies) {
    HPCFAIL_EXPECTS(!p.name.empty(), "policy names must be non-empty");
    HPCFAIL_EXPECTS(std::find(names.begin(), names.end(), p.name) ==
                        names.end(),
                    "policy names must be unique within a campaign");
    names.push_back(p.name);
    HPCFAIL_EXPECTS(p.checkpoint_interval >= 0.0,
                    "checkpoint interval must be non-negative");
    if (!p.hazard_aware) continue;
    HPCFAIL_EXPECTS(p.checkpoint_interval == 0.0,
                    "a hazard-aware policy has no fixed interval");
    for (const CampaignScenario& s : spec.scenarios) {
      HPCFAIL_EXPECTS(s.faults.kind == FaultModelKind::renewal &&
                          s.faults.renewal.size() == 1,
                      "hazard-aware checkpointing needs a scenario whose "
                      "nodes share one renewal distribution");
      HPCFAIL_EXPECTS(s.job_work_seconds <= kMaxHazardAwareSegments *
                                                p.hazard_aware->min_interval,
                      "a hazard-aware job may span at most 2^20 minimum "
                      "checkpoint intervals");
    }
  }
}

/// The renewal pair node `node` draws from.
const RenewalPair& pair_for(const FaultModel& model, std::size_t node) {
  return model.renewal.size() == 1 ? model.renewal.front()
                                   : model.renewal[node];
}

/// Node ids ordered by expected fault count, fewest first, ties to the
/// lower id: a scripted model's planned faults per node, or a renewal
/// node's rate 1/mean.
std::vector<int> ranked_nodes(const CampaignScenario& scen) {
  std::vector<double> expected(scen.node_count, 0.0);
  if (scen.faults.kind == FaultModelKind::scripted) {
    for (const InjectedFault& f : scen.faults.scripted) {
      expected[static_cast<std::size_t>(f.node)] += 1.0;
    }
  } else {
    for (std::size_t n = 0; n < scen.node_count; ++n) {
      expected[n] = 1.0 / pair_for(scen.faults, n).interarrival->mean();
    }
  }
  std::vector<int> order(scen.node_count);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&expected](int a, int b) {
    return expected[static_cast<std::size_t>(a)] <
           expected[static_cast<std::size_t>(b)];
  });
  return order;
}

/// Where the hazard-aware rule's segments end, in work seconds since the
/// attempt began, until they cover a whole job. The sequence restarts at
/// every attempt, so a cell's runs share it.
std::vector<double> hazard_aware_segment_ends(const CampaignScenario& scen,
                                              const HazardAwareBounds& bounds) {
  const dist::Distribution& process = *scen.faults.renewal.front().interarrival;
  std::vector<double> ends;
  double covered = 0.0;
  double since_start = 0.0;
  while (covered < scen.job_work_seconds) {
    const double tau = hazard_aware_interval(process, scen.checkpoint_cost,
                                             since_start, bounds);
    covered += tau;
    ends.push_back(covered);
    since_start += tau + scen.checkpoint_cost;
  }
  return ends;
}

/// An empty priority queue whose storage holds `n` items before it grows.
template <typename Queue>
Queue reserved_queue(std::size_t n) {
  typename Queue::container_type storage;
  storage.reserve(n);
  return Queue(typename Queue::value_compare(), std::move(storage));
}

/// A first-in first-out queue of at most `capacity` items, in one
/// allocation made up front.
template <typename T>
class BoundedFifo {
 public:
  explicit BoundedFifo(std::size_t capacity) : items_(capacity) {}

  bool empty() const { return size_ == 0; }

  void push_back(const T& item) {
    HPCFAIL_ASSERT(size_ < items_.size());
    std::size_t at = head_ + size_;
    if (at >= items_.size()) at -= items_.size();
    items_[at] = item;
    ++size_;
  }

  /// Removes and returns the oldest item. Requires !empty().
  T pop_front() {
    const T item = items_[head_];
    if (++head_ == items_.size()) head_ = 0;
    --size_;
    return item;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

/// One run's faults in delivery order: (time, node) for renewal models,
/// script order for scripted ones. A renewal node keeps one pending fault
/// and draws from its forked stream (fork is const, so the run RNG's
/// placement draws stay independent of the faults) in the eager order:
/// interarrival k, then at delivery repair k and interarrival k + 1.
class FaultSource {
 public:
  FaultSource(const CampaignScenario& scen, const Rng& run_rng)
      : scen_(scen) {
    if (scen.faults.kind == FaultModelKind::scripted) return;
    pending_ = reserved_queue<PendingQueue>(scen.node_count);
    streams_.reserve(scen.node_count);
    for (std::size_t node = 0; node < scen.node_count; ++node) {
      streams_.push_back(run_rng.fork(static_cast<std::uint64_t>(node)));
      draw_next(node, 0.0);
    }
  }

  bool empty() const {
    return streams_.empty() ? cursor_ == scen_.faults.scripted.size()
                            : pending_.empty();
  }

  /// Time of the next fault. Requires !empty().
  double next_time() const {
    return streams_.empty() ? scen_.faults.scripted[cursor_].time
                            : pending_.top().first;
  }

  /// Delivers the next fault. Requires !empty().
  InjectedFault next() {
    if (streams_.empty()) return scen_.faults.scripted[cursor_++];
    const auto [time, node] = pending_.top();
    pending_.pop();
    const RenewalPair& pair = pair_for(scen_.faults, node);
    const double repair =
        pair.repair ? std::max(0.0, pair.repair->sample(streams_[node])) : 0.0;
    draw_next(node, time);
    return {time, static_cast<int>(node), repair};
  }

 private:
  void draw_next(std::size_t node, double after) {
    const RenewalPair& pair = pair_for(scen_.faults, node);
    const double t = after + pair.interarrival->sample(streams_[node]);
    if (t <= scen_.horizon_seconds) pending_.emplace(t, node);
  }

  const CampaignScenario& scen_;
  std::size_t cursor_ = 0;  ///< scripted: next script index
  std::vector<Rng> streams_;  ///< renewal: one stream per node
  /// Renewal: each node's next (time, node), earliest first.
  using Pending = std::pair<double, std::size_t>;
  using PendingQueue =
      std::priority_queue<Pending, std::vector<Pending>, std::greater<>>;
  PendingQueue pending_;
};

// ---------------------------------------------------------------------
// The per-run simulation engine. Events other than faults run in (time,
// insertion) order; a fault sorts before any of them at the same instant,
// so a fault landing at a job's exact completion instant kills the job.

enum class EventKind : std::uint8_t { repair_done, job_complete };

struct Event {
  double time = 0.0;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::repair_done;
  int arg = 0;  ///< repair_done: node; job_complete: job
  std::uint64_t stamp = 0;  ///< job attempt stamp (completion staleness)
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

struct QueuedRepair {
  double fault_time = 0.0;
  int node = 0;
  double duration = 0.0;
};

class RunEngine {
 public:
  /// `ranked` is the scenario's ranked-placement order and `rank_of` its
  /// inverse, each node's position in it; `segment_ends` the cell's
  /// hazard-aware segment ends (empty under a fixed interval).
  RunEngine(const CampaignScenario& scen, const CampaignPolicy& pol,
            std::span<const int> ranked, std::span<const int> rank_of,
            std::span<const double> segment_ends, Rng rng)
      : scen_(scen),
        pol_(pol),
        width_(static_cast<std::size_t>(scen.job_width)),
        by_rank_(pol.placement == PlacementPolicy::reliability_ranked),
        ranked_(ranked),
        rank_of_(rank_of),
        segment_ends_(segment_ends),
        faults_(scen, rng),
        rng_(rng),
        events_(reserved_queue<EventQueue>(scen.job_count + scen.node_count)),
        down_(scen.node_count, 0),
        node_job_(scen.node_count, -1),
        free_bits_((scen.node_count + 63) / 64, 0),
        free_(scen.node_count),
        candidates_(scen.node_count),
        jobs_(scen.job_count),
        job_nodes_(scen.job_count * width_),
        pending_(scen.job_count),
        repair_queue_(scen.node_count) {
    // Every node starts up and idle. Slots are rank positions or ids, so
    // either way they cover [0, node_count).
    for (std::size_t slot = 0; slot < scen.node_count; ++slot) {
      free_bits_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    }
    for (Job& job : jobs_) job.remaining = scen.job_work_seconds;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      pending_.push_back(static_cast<int>(j));
    }
  }

  CampaignRunResult run() {
    try_dispatch(0.0);
    while (jobs_done_ < jobs_.size()) {
      if (!faults_.empty() &&
          (events_.empty() || faults_.next_time() <= events_.top().time)) {
        handle_fault(faults_.next());
        continue;
      }
      // Down nodes always have a repair event in flight or queued behind a
      // busy crew, so events can only run out with jobs still pending if
      // the engine is buggy.
      HPCFAIL_ASSERT(!events_.empty());
      const Event e = events_.top();
      events_.pop();
      switch (e.kind) {
        case EventKind::repair_done:
          handle_repair_done(e.time, e.arg);
          break;
        case EventKind::job_complete:
          handle_complete(e.time, e.arg, e.stamp);
          break;
      }
    }
    return out_;
  }

 private:
  struct Job {
    double remaining = 0.0;        ///< work left at the next dispatch
    double done = 0.0;             ///< work saved since the job began
    double pending_restart = 0.0;  ///< reload cost owed at the next dispatch
    double attempt_start = 0.0;
    double attempt_work = 0.0;     ///< `remaining` when the attempt began
    double attempt_restart = 0.0;  ///< `pending_restart` when it began
    std::uint64_t stamp = 0;  ///< bumped per dispatch/kill; stales events
    bool running = false;
  };

  using EventQueue =
      std::priority_queue<Event, std::vector<Event>, EventLater>;

  void push_event(double time, EventKind kind, int arg, std::uint64_t stamp) {
    events_.push(Event{time, next_seq_++, kind, arg, stamp});
  }

  /// Checkpoint writes in an uninterrupted attempt of `work` seconds: one
  /// after every segment but the last.
  double writes_for(double work) const {
    if (!segment_ends_.empty()) {
      return static_cast<double>(
          std::lower_bound(segment_ends_.begin(), segment_ends_.end(), work) -
          segment_ends_.begin());
    }
    const double tau = pol_.checkpoint_interval;
    if (tau <= 0.0) return 0.0;
    return std::max(0.0, std::ceil(work / tau) - 1.0);
  }

  /// Wall seconds attempt `work` + `restart` takes uninterrupted.
  double attempt_wall(double work, double restart) const {
    return restart + work + writes_for(work) * scen_.checkpoint_cost;
  }

  /// Job `j`'s nodes while it runs: its row of `job_nodes_`.
  std::span<int> nodes_of(int j) {
    return {job_nodes_.data() + static_cast<std::size_t>(j) * width_, width_};
  }

  /// A node's bit in `free_bits_`: its rank position under ranked
  /// placement, its id under random placement.
  std::size_t slot_of(int node) const {
    const auto n = static_cast<std::size_t>(node);
    return by_rank_ ? static_cast<std::size_t>(rank_of_[n]) : n;
  }

  void mark_free(int node) {
    const std::size_t slot = slot_of(node);
    free_bits_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    ++free_;
  }

  void mark_taken(int node) {
    const std::size_t slot = slot_of(node);
    free_bits_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
    --free_;
  }

  std::size_t free_bit_count() const {
    std::size_t count = 0;
    for (const std::uint64_t word : free_bits_) {
      count += static_cast<std::size_t>(std::popcount(word));
    }
    return count;
  }

  /// Frees a finished or killed job's nodes; a node that is down stays
  /// unavailable until its repair is done.
  void release_nodes(int j) {
    for (const int n : nodes_of(j)) {
      node_job_[static_cast<std::size_t>(n)] = -1;
      if (!down_[static_cast<std::size_t>(n)]) mark_free(n);
    }
  }

  /// Ranked placement: the nodes of the lowest free slots, best first.
  void take_ranked(std::span<int> nodes) const {
    std::size_t k = 0;
    for (std::size_t w = 0; k < nodes.size(); ++w) {
      for (std::uint64_t word = free_bits_[w]; word != 0 && k < nodes.size();
           word &= word - 1) {
        nodes[k++] = ranked_[w * 64 + static_cast<std::size_t>(
                                          std::countr_zero(word))];
      }
    }
  }

  /// Random placement: a partial Fisher-Yates over the free nodes in
  /// ascending id order, the only RNG consumption in the engine, one draw
  /// per chosen node.
  void take_random(std::span<int> nodes) {
    std::size_t count = 0;
    for (std::size_t w = 0; w < free_bits_.size(); ++w) {
      for (std::uint64_t word = free_bits_[w]; word != 0; word &= word - 1) {
        candidates_[count++] = static_cast<int>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(word)));
      }
    }
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const std::size_t pick =
          i + static_cast<std::size_t>(rng_.uniform_index(count - i));
      std::swap(candidates_[i], candidates_[pick]);
      nodes[i] = candidates_[i];
    }
  }

  void try_dispatch(double now) {
    while (!pending_.empty()) {
      if (scen_.max_concurrent_jobs != 0 &&
          running_ >= scen_.max_concurrent_jobs) {
        return;
      }
      if (free_ < width_) return;
      HPCFAIL_ASSERT(free_bit_count() == free_);
      const int j = pending_.pop_front();
      const std::span<int> nodes = nodes_of(j);
      if (by_rank_) {
        take_ranked(nodes);
      } else {
        take_random(nodes);
      }
      for (const int n : nodes) {
        node_job_[static_cast<std::size_t>(n)] = j;
        mark_taken(n);
      }
      Job& job = jobs_[static_cast<std::size_t>(j)];
      job.attempt_start = now;
      job.attempt_work = job.remaining;
      job.attempt_restart = job.pending_restart;
      job.running = true;
      ++job.stamp;
      ++running_;
      push_event(now + attempt_wall(job.attempt_work, job.attempt_restart),
                 EventKind::job_complete, j, job.stamp);
    }
  }

  void begin_repair(double now, double fault_time, int node, double duration) {
    out_.repair_wait += now - fault_time;
    out_.downtime += (now - fault_time) + duration;
    push_event(now + duration, EventKind::repair_done, node, 0);
  }

  void handle_fault(const InjectedFault& fault) {
    const double now = fault.time;
    ++out_.faults_injected;
    const auto n = static_cast<std::size_t>(fault.node);
    if (down_[n]) {
      // A fault on an already-down node is absorbed: it neither extends
      // the repair in progress nor queues a second one.
      ++out_.faults_absorbed;
      return;
    }
    down_[n] = 1;
    const int j = node_job_[n];
    if (j < 0) mark_taken(fault.node);
    if (scen_.repair_concurrency == 0 ||
        crews_busy_ < scen_.repair_concurrency) {
      ++crews_busy_;
      begin_repair(now, now, fault.node, fault.repair_seconds);
    } else {
      repair_queue_.push_back({now, fault.node, fault.repair_seconds});
    }
    if (j >= 0) kill_job(now, j);
  }

  void kill_job(double now, int j) {
    Job& job = jobs_[static_cast<std::size_t>(j)];
    const auto w = static_cast<double>(width_);
    const double elapsed = now - job.attempt_start;
    // Split the attempt's elapsed node-seconds into restart phase, saved
    // work, checkpoint writes, and the lost tail since the last
    // checkpoint. A cycle (segment + its write) finished at or before the
    // kill is saved; e1 + e2 == elapsed, and the four buckets sum to
    // elapsed * width.
    const double e1 = std::min(elapsed, job.attempt_restart);
    const double e2 = elapsed - e1;
    const double cost = scen_.checkpoint_cost;
    double saved = 0.0;
    double write_cost = 0.0;
    if (!segment_ends_.empty()) {
      // The segment that reaches the end of the work writes no checkpoint.
      double cycles = 0.0;
      for (const double end : segment_ends_) {
        if (end >= job.attempt_work || end + (cycles + 1.0) * cost > e2) break;
        saved = end;
        cycles += 1.0;
      }
      write_cost = cycles * cost;
    } else if (pol_.checkpoint_interval > 0.0 && e2 > 0.0) {
      const double tau = pol_.checkpoint_interval;
      const double cycles = std::floor(e2 / (tau + cost));
      saved = std::min(cycles * tau, job.attempt_work);
      write_cost = cycles * cost;
    }
    out_.restart_overhead += e1 * w;
    out_.useful_work += saved * w;
    out_.checkpoint_overhead += write_cost * w;
    out_.wasted_work += (e2 - saved - write_cost) * w;
    ++out_.interruptions;
    // Hazard-aware segment ends are not round numbers: counting from the
    // job's start, as useful work does, keeps a lone job's useful work
    // within one rounding of its work instead of one per kill.
    job.done += saved;
    job.remaining = segment_ends_.empty() ? job.attempt_work - saved
                                          : scen_.job_work_seconds - job.done;
    job.pending_restart = scen_.restart_cost;
    job.running = false;
    ++job.stamp;  // stales the scheduled completion event
    --running_;
    release_nodes(j);
    pending_.push_back(j);
    try_dispatch(now);
  }

  void handle_repair_done(double now, int node) {
    // A down node runs no job: its job was killed by the fault.
    down_[static_cast<std::size_t>(node)] = 0;
    mark_free(node);
    --crews_busy_;
    if (!repair_queue_.empty()) {
      const QueuedRepair next = repair_queue_.pop_front();
      ++crews_busy_;
      begin_repair(now, next.fault_time, next.node, next.duration);
    }
    try_dispatch(now);
  }

  void handle_complete(double now, int j, std::uint64_t stamp) {
    Job& job = jobs_[static_cast<std::size_t>(j)];
    if (!job.running || job.stamp != stamp) return;  // stale attempt
    const auto w = static_cast<double>(width_);
    const double writes = writes_for(job.attempt_work);
    out_.useful_work += job.attempt_work * w;
    out_.checkpoint_overhead += writes * scen_.checkpoint_cost * w;
    out_.restart_overhead += job.attempt_restart * w;
    job.running = false;
    --running_;
    release_nodes(j);
    ++jobs_done_;
    out_.makespan = now;
    try_dispatch(now);
  }

  const CampaignScenario& scen_;
  const CampaignPolicy& pol_;
  const std::size_t width_;  ///< nodes per job
  const bool by_rank_;       ///< reliability-ranked placement
  std::span<const int> ranked_;
  std::span<const int> rank_of_;
  std::span<const double> segment_ends_;
  FaultSource faults_;
  Rng rng_;
  CampaignRunResult out_;

  EventQueue events_;
  std::uint64_t next_seq_ = 0;

  std::vector<char> down_;
  std::vector<int> node_job_;
  /// One bit per placement slot, set while its node is up and runs no job.
  std::vector<std::uint64_t> free_bits_;
  std::size_t free_;  ///< set bits: nodes neither down nor running a job
  std::vector<int> candidates_;  ///< random placement's free-node list

  std::vector<Job> jobs_;
  std::vector<int> job_nodes_;  ///< job_count x width; row j: job j's nodes
  BoundedFifo<int> pending_;
  std::size_t running_ = 0;
  std::size_t jobs_done_ = 0;

  std::size_t crews_busy_ = 0;
  BoundedFifo<QueuedRepair> repair_queue_;
};

/// %.17g — the shortest format that round-trips every finite double.
std::string format_double(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

double parse_double(const std::string& token, const std::string& path) {
  try {
    std::size_t used = 0;
    const double v = std::stod(token, &used);
    // stod also reads nan and inf, which no finished run can hold.
    if (used != token.size() || !std::isfinite(v)) {
      throw std::invalid_argument(token);
    }
    return v;
  } catch (const std::exception&) {
    throw ParseError("campaign checkpoint " + path + ": bad number '" +
                     token + "'");
  }
}

/// A decimal integer that fits unsigned type T: digits only, so a sign or
/// an out-of-range value is a ParseError, never a wrapped number.
template <typename T>
T parse_uint(const std::string& token, const std::string& path) {
  T v = 0;
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc{} || stop != end) {
    throw ParseError("campaign checkpoint " + path + ": bad integer '" +
                     token + "'");
  }
  return v;
}

}  // namespace

double CampaignRunResult::waste_fraction() const {
  const double busy =
      useful_work + wasted_work + checkpoint_overhead + restart_overhead;
  if (busy <= 0.0) return 0.0;
  return (busy - useful_work) / busy;
}

std::uint64_t CampaignResult::total_faults_injected() const {
  std::uint64_t total = 0;
  for (const CampaignRunResult& r : runs) total += r.faults_injected;
  return total;
}

void save_campaign_checkpoint(const std::string& path,
                              const CampaignCheckpoint& checkpoint) {
  std::ostringstream out;
  out << "hpcfail-campaign-checkpoint v1\n";
  out << "fingerprint " << checkpoint.fingerprint << "\n";
  out << "total_runs " << checkpoint.total_runs << "\n";
  out << "completed " << checkpoint.completed.size() << "\n";
  for (const CampaignRunResult& r : checkpoint.completed) {
    out << "run " << r.cell << ' ' << r.replicate << ' ' << r.faults_injected
        << ' ' << r.faults_absorbed << ' ' << r.interruptions << ' '
        << format_double(r.makespan) << ' ' << format_double(r.useful_work)
        << ' ' << format_double(r.wasted_work) << ' '
        << format_double(r.checkpoint_overhead) << ' '
        << format_double(r.restart_overhead) << ' '
        << format_double(r.downtime) << ' ' << format_double(r.repair_wait)
        << "\n";
  }
  // Write a temp file and rename it over `path`: a crash or a full disk
  // mid-save must not destroy the progress already saved.
  const std::string content = out.str();
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    throw IoError("cannot open campaign checkpoint for write: " + tmp);
  }
  bool ok = std::fwrite(content.data(), 1, content.size(), file) ==
            content.size();
  ok = std::fflush(file) == 0 && ok;
  ok = ok && ::fsync(::fileno(file)) == 0;
  ok = std::fclose(file) == 0 && ok;
  ok = ok && std::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    std::remove(tmp.c_str());
    throw IoError("failed writing campaign checkpoint: " + path);
  }
}

CampaignCheckpoint load_campaign_checkpoint(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open campaign checkpoint: " + path);
  std::string line;
  if (!std::getline(in, line) || line != "hpcfail-campaign-checkpoint v1") {
    throw ParseError("campaign checkpoint " + path + ": bad header");
  }
  const auto expect_field = [&](const char* key) {
    if (!std::getline(in, line)) {
      throw ParseError("campaign checkpoint " + path + ": truncated");
    }
    std::istringstream fields(line);
    std::string name, value, extra;
    if (!(fields >> name >> value) || name != key || (fields >> extra)) {
      throw ParseError("campaign checkpoint " + path + ": expected '" +
                       key + "' line");
    }
    return value;
  };
  CampaignCheckpoint checkpoint;
  checkpoint.fingerprint =
      parse_uint<std::uint64_t>(expect_field("fingerprint"), path);
  checkpoint.total_runs =
      parse_uint<std::size_t>(expect_field("total_runs"), path);
  // No reserve from the file's count: the run lines below must prove it.
  const auto completed =
      parse_uint<std::size_t>(expect_field("completed"), path);
  for (std::size_t i = 0; i < completed; ++i) {
    if (!std::getline(in, line)) {
      throw ParseError("campaign checkpoint " + path + ": truncated run list");
    }
    std::istringstream fields(line);
    std::string tag;
    std::string token[12];
    if (!(fields >> tag) || tag != "run") {
      throw ParseError("campaign checkpoint " + path + ": expected 'run' line");
    }
    for (auto& t : token) {
      if (!(fields >> t)) {
        throw ParseError("campaign checkpoint " + path + ": short run line");
      }
    }
    std::string extra;
    if (fields >> extra) {
      throw ParseError("campaign checkpoint " + path + ": long run line");
    }
    CampaignRunResult r;
    r.cell = parse_uint<std::uint32_t>(token[0], path);
    r.replicate = parse_uint<std::uint32_t>(token[1], path);
    r.faults_injected = parse_uint<std::uint64_t>(token[2], path);
    r.faults_absorbed = parse_uint<std::uint64_t>(token[3], path);
    r.interruptions = parse_uint<std::uint64_t>(token[4], path);
    r.makespan = parse_double(token[5], path);
    r.useful_work = parse_double(token[6], path);
    r.wasted_work = parse_double(token[7], path);
    r.checkpoint_overhead = parse_double(token[8], path);
    r.restart_overhead = parse_double(token[9], path);
    r.downtime = parse_double(token[10], path);
    r.repair_wait = parse_double(token[11], path);
    checkpoint.completed.push_back(r);
  }
  return checkpoint;
}

Campaign::Campaign(CampaignSpec spec) : spec_(std::move(spec)) {
  validate_spec(spec_);
  fingerprint_ = fingerprint_spec(spec_);
  for (const CampaignScenario& scen : spec_.scenarios) {
    std::vector<int> order = ranked_nodes(scen);
    std::vector<int> rank_of(order.size());
    for (std::size_t rank = 0; rank < order.size(); ++rank) {
      rank_of[static_cast<std::size_t>(order[rank])] = static_cast<int>(rank);
    }
    ranked_nodes_.push_back(std::move(order));
    rank_of_.push_back(std::move(rank_of));
    for (const CampaignPolicy& pol : spec_.policies) {
      segment_ends_.push_back(
          pol.hazard_aware ? hazard_aware_segment_ends(scen, *pol.hazard_aware)
                           : std::vector<double>{});
    }
  }
}

std::size_t Campaign::cell_count() const {
  return spec_.scenarios.size() * spec_.policies.size();
}

std::size_t Campaign::total_runs() const {
  return cell_count() * spec_.runs_per_cell;
}

const CampaignScenario& Campaign::scenario_of_cell(std::size_t cell) const {
  HPCFAIL_EXPECTS(cell < cell_count(), "cell index out of range");
  return spec_.scenarios[cell / spec_.policies.size()];
}

const CampaignPolicy& Campaign::policy_of_cell(std::size_t cell) const {
  HPCFAIL_EXPECTS(cell < cell_count(), "cell index out of range");
  return spec_.policies[cell % spec_.policies.size()];
}

std::vector<InjectedFault> Campaign::schedule_for(std::size_t cell,
                                                  std::size_t replicate) const {
  HPCFAIL_EXPECTS(cell < cell_count(), "cell index out of range");
  HPCFAIL_EXPECTS(replicate < spec_.runs_per_cell,
                  "replicate index out of range");
  const CampaignScenario& scen = scenario_of_cell(cell);
  HPCFAIL_EXPECTS(scen.faults.kind == FaultModelKind::scripted ||
                      std::isfinite(scen.horizon_seconds),
                  "an infinite renewal horizon has no finite schedule");
  FaultSource source(scen, Rng(mix_seed(spec_.seed, cell, replicate)));
  std::vector<InjectedFault> schedule;
  while (!source.empty()) schedule.push_back(source.next());
  return schedule;
}

CampaignRunResult Campaign::execute_run(std::size_t cell,
                                        std::size_t replicate) const {
  HPCFAIL_EXPECTS(cell < cell_count(), "cell index out of range");
  HPCFAIL_EXPECTS(replicate < spec_.runs_per_cell,
                  "replicate index out of range");
  const auto started = std::chrono::steady_clock::now();
  const std::size_t scen = cell / spec_.policies.size();
  RunEngine engine(scenario_of_cell(cell), policy_of_cell(cell),
                   ranked_nodes_[scen], rank_of_[scen], segment_ends_[cell],
                   Rng(mix_seed(spec_.seed, cell, replicate)));
  CampaignRunResult result = engine.run();
  result.cell = static_cast<std::uint32_t>(cell);
  result.replicate = static_cast<std::uint32_t>(replicate);
  if (obs::enabled()) {
    // Timing is observe-only (the engine never reads the clock), so the
    // results stay bit-identical with obs on or off.
    const std::chrono::duration<double, std::milli> wall =
        std::chrono::steady_clock::now() - started;
    obs::Registry& reg = obs::registry();
    reg.counter("campaign.faults_injected").add(result.faults_injected);
    reg.gauge("campaign.shard_ms").add(wall.count());
  }
  return result;
}

namespace {

/// Places `resume`'s runs into `slots`/`have` after validating that it
/// belongs to this campaign. Counts the resume in obs.
void absorb_checkpoint(const Campaign& campaign,
                       const CampaignCheckpoint& resume,
                       std::vector<CampaignRunResult>& slots,
                       std::vector<char>& have) {
  if (resume.fingerprint != campaign.fingerprint()) {
    throw ValidationError(
        "campaign checkpoint belongs to a different spec "
        "(fingerprint mismatch)");
  }
  if (resume.total_runs != campaign.total_runs()) {
    throw ValidationError("campaign checkpoint run-count mismatch");
  }
  const std::size_t rpc = campaign.spec().runs_per_cell;
  for (const CampaignRunResult& r : resume.completed) {
    if (r.cell >= campaign.cell_count() || r.replicate >= rpc) {
      throw ValidationError("campaign checkpoint run outside the grid");
    }
    const std::size_t idx = r.cell * rpc + r.replicate;
    if (have[idx]) {
      throw ValidationError("campaign checkpoint has duplicate runs");
    }
    slots[idx] = r;
    have[idx] = 1;
  }
  if (!resume.completed.empty() && obs::enabled()) {
    obs::registry().counter("campaign.resumes").add(1);
  }
}

}  // namespace

CampaignResult Campaign::run(const CampaignCheckpoint* resume) const {
  const std::size_t n = total_runs();
  const std::size_t rpc = spec_.runs_per_cell;
  std::vector<CampaignRunResult> slots(n);
  std::vector<char> have(n, 0);
  if (resume) absorb_checkpoint(*this, *resume, slots, have);
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < n; ++i) {
    if (!have[i]) todo.push_back(i);
  }
  const auto fresh =
      parallel_map(todo.size(), [this, &todo, rpc](std::size_t i) {
        const std::size_t idx = todo[i];
        return execute_run(idx / rpc, idx % rpc);
      });
  for (std::size_t i = 0; i < todo.size(); ++i) slots[todo[i]] = fresh[i];
  return assemble(std::move(slots));
}

CampaignCheckpoint Campaign::run_partial(
    std::size_t max_new_runs, const CampaignCheckpoint* resume) const {
  const std::size_t n = total_runs();
  const std::size_t rpc = spec_.runs_per_cell;
  std::vector<CampaignRunResult> slots(n);
  std::vector<char> have(n, 0);
  if (resume) absorb_checkpoint(*this, *resume, slots, have);
  std::vector<std::size_t> todo;
  for (std::size_t i = 0; i < n && todo.size() < max_new_runs; ++i) {
    if (!have[i]) todo.push_back(i);
  }
  const auto fresh =
      parallel_map(todo.size(), [this, &todo, rpc](std::size_t i) {
        const std::size_t idx = todo[i];
        return execute_run(idx / rpc, idx % rpc);
      });
  for (std::size_t i = 0; i < todo.size(); ++i) {
    slots[todo[i]] = fresh[i];
    have[todo[i]] = 1;
  }
  CampaignCheckpoint out;
  out.fingerprint = fingerprint_;
  out.total_runs = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (have[i]) out.completed.push_back(slots[i]);
  }
  return out;
}

CampaignResult Campaign::summarize(const CampaignCheckpoint& checkpoint) const {
  const std::size_t n = total_runs();
  std::vector<CampaignRunResult> slots(n);
  std::vector<char> have(n, 0);
  absorb_checkpoint(*this, checkpoint, slots, have);
  if (!checkpoint.complete()) {
    throw ValidationError("cannot summarize an incomplete campaign checkpoint");
  }
  return assemble(std::move(slots));
}

CampaignResult Campaign::assemble(std::vector<CampaignRunResult> runs) const {
  CampaignResult result;
  result.runs = std::move(runs);
  const std::size_t rpc = spec_.runs_per_cell;
  // One task per (cell, metric): makespan, waste fraction, interruptions.
  // Each resamples from its own stream keyed on (fingerprint, cell,
  // metric), and parallel_map returns them in task order, so the
  // summaries are as reproducible as the runs at any thread count. The
  // plain mean is bit-identical to the testkit reference aggregate.
  constexpr std::size_t kMetrics = 3;
  const std::vector<stats::BootstrapResult> boots = parallel_map(
      kMetrics * cell_count(), [this, &result, rpc](std::size_t task) {
        const std::size_t cell = task / kMetrics;
        const std::size_t metric = task % kMetrics;
        std::vector<double> xs;
        xs.reserve(rpc);
        for (std::size_t rep = 0; rep < rpc; ++rep) {
          const CampaignRunResult& r = result.runs[cell * rpc + rep];
          xs.push_back(metric == 0   ? r.makespan
                       : metric == 1 ? r.waste_fraction()
                                     : static_cast<double>(r.interruptions));
        }
        Rng rng(mix_seed(fingerprint_, cell, metric));
        return stats::bootstrap_mean(xs, rng, spec_.ci);
      });
  result.cells.reserve(cell_count());
  for (std::size_t cell = 0; cell < cell_count(); ++cell) {
    CampaignCellSummary summary;
    summary.scenario = scenario_of_cell(cell).name;
    summary.policy = policy_of_cell(cell).name;
    summary.runs = rpc;
    for (std::size_t rep = 0; rep < rpc; ++rep) {
      summary.faults_injected += result.runs[cell * rpc + rep].faults_injected;
    }
    summary.makespan = boots[kMetrics * cell];
    summary.waste_fraction = boots[kMetrics * cell + 1];
    summary.interruptions = boots[kMetrics * cell + 2];
    result.cells.push_back(std::move(summary));
  }
  return result;
}

}  // namespace hpcfail::sim
