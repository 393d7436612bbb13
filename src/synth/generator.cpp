#include "synth/generator.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "dist/lognormal.hpp"
#include "dist/weibull.hpp"
#include "obs/timer.hpp"
#include "stats/special.hpp"
#include "trace/columns.hpp"
#include "trace/merge.hpp"

namespace hpcfail::synth {

using dist::LogNormal;
using dist::Weibull;
using trace::ColumnStore;
using trace::DetailCause;
using trace::FailureRecord;
using trace::NodeCategory;
using trace::RootCause;
using trace::SystemInfo;
using trace::Workload;

namespace {

// Hourly cumulative modulated intensity over one system's production
// window. C[i] is the integral of lifecycle x diurnal x weekly over the
// first i hours, in "modulated hours"; index 0 is the production start.
struct IntensityGrid {
  Seconds start = 0;
  std::vector<double> cumulative;  // size = hours + 1

  Seconds end() const noexcept {
    return start +
           static_cast<Seconds>(cumulative.size() - 1) * kSecondsPerHour;
  }

  /// Cumulative modulated hours from grid start to absolute time t
  /// (clamped to the grid).
  double at(Seconds t) const {
    if (t <= start) return 0.0;
    const auto max_idx = static_cast<Seconds>(cumulative.size()) - 1;
    Seconds hours = (t - start) / kSecondsPerHour;
    if (hours >= max_idx) return cumulative.back();
    const auto i = static_cast<std::size_t>(hours);
    const double frac =
        static_cast<double>((t - start) % kSecondsPerHour) /
        static_cast<double>(kSecondsPerHour);
    return cumulative[i] + frac * (cumulative[i + 1] - cumulative[i]);
  }
};

/// Monotone inverse of the cumulative intensity. Each node queries its
/// event times in increasing order, so instead of a full binary search
/// over the whole grid (~80k hours for a 9-year system) per event, the
/// cursor gallops forward from the previous hit and binary-searches only
/// the overshoot window. Returns the same value, bit for bit, as an
/// upper_bound over the whole grid.
class InvertCursor {
 public:
  explicit InvertCursor(const IntensityGrid& grid) noexcept : grid_(&grid) {}

  /// Absolute time where the cumulative intensity reaches c. Requires
  /// 0 <= c <= cumulative.back() and c non-decreasing across calls.
  Seconds operator()(double c) {
    const std::vector<double>& cum = grid_->cumulative;
    const std::size_t size = cum.size();
    std::size_t lo = pos_;  // invariant: cum[lo] <= c
    std::size_t step = 1;
    while (lo + step < size && cum[lo + step] <= c) {
      lo += step;
      step <<= 1;
    }
    const auto it = std::upper_bound(
        cum.begin() + static_cast<std::ptrdiff_t>(lo + 1),
        cum.begin() + static_cast<std::ptrdiff_t>(std::min(lo + step, size)),
        c);
    if (it == cum.end()) return grid_->end();
    const auto i = static_cast<std::size_t>(it - cum.begin()) - 1;
    pos_ = i;
    const double span = cum[i + 1] - cum[i];
    const double frac = span > 0.0 ? (c - cum[i]) / span : 0.0;
    return grid_->start + static_cast<Seconds>(i) * kSecondsPerHour +
           static_cast<Seconds>(frac * static_cast<double>(kSecondsPerHour));
  }

 private:
  const IntensityGrid* grid_;
  std::size_t pos_ = 0;
};

IntensityGrid build_grid(const SystemInfo& sys, const Lifecycle& lifecycle) {
  IntensityGrid grid;
  grid.start = sys.production_start();
  const Seconds end = sys.production_end();
  const auto hours =
      static_cast<std::size_t>((end - grid.start) / kSecondsPerHour) + 1;
  grid.cumulative.resize(hours + 1);
  grid.cumulative[0] = 0.0;
  // The diurnal and weekly factors repeat with a one-week (168-hour)
  // period whatever the grid's phase, so resolve them through a per-week
  // table instead of two calendar conversions per grid hour. The
  // multiplication order (lifecycle x diurnal x weekly) is unchanged, so
  // the cumulative sums match the direct evaluation bit for bit.
  constexpr std::size_t kWeekHours = 168;
  std::array<double, kWeekHours> diurnal;
  std::array<double, kWeekHours> weekly;
  for (std::size_t i = 0; i < kWeekHours; ++i) {
    const Seconds t = grid.start + static_cast<Seconds>(i) * kSecondsPerHour;
    diurnal[i] = diurnal_factor(hour_of_day(t));
    weekly[i] = weekly_factor(day_of_week(t));
  }
  std::size_t week_idx = 0;
  for (std::size_t i = 0; i < hours; ++i) {
    const Seconds t = grid.start + static_cast<Seconds>(i) * kSecondsPerHour;
    const double months =
        static_cast<double>(t - grid.start) / kSecondsPerMonth;
    const double rate = lifecycle_factor(lifecycle, months) *
                        diurnal[week_idx] * weekly[week_idx];
    grid.cumulative[i + 1] = grid.cumulative[i] + rate;
    if (++week_idx == kWeekHours) week_idx = 0;
  }
  return grid;
}

// Mean-1 renewal gap samplers for the two eras: mu = -sigma^2/2 gives the
// lognormal mean 1, and so does the Weibull scale 1 / Gamma(1 + 1/k).
// Throws InvalidArgument on a sigma or shape either family rejects.
struct GapSamplers {
  LogNormal early;
  Weibull late;
};

GapSamplers gap_samplers(const SystemScenario& scen) {
  const double sigma = scen.early_lognormal_sigma;
  const double k = scen.interarrival_weibull_shape;
  return {LogNormal(-0.5 * sigma * sigma, sigma),
          Weibull(k, std::exp(-stats::log_gamma_unchecked(1.0 + 1.0 / k)))};
}

/// The in-production candidate list a burst picks follower nodes from —
/// categories in catalog order, node ids ascending, the primary excluded —
/// resolved index-to-node on demand. Emulating the swap-remove draws on
/// the virtual list keeps the picked sequence identical to materializing
/// the list, at O(followers * categories) per burst instead of O(nodes).
class BurstCandidates {
 public:
  BurstCandidates(const SystemInfo& sys, Seconds t, int exclude) noexcept
      : sys_(&sys), t_(t), exclude_(exclude) {
    for (const NodeCategory& c : sys.categories) {
      if (t < c.production_start || t >= c.production_end) continue;
      size_ += static_cast<std::uint64_t>(c.node_count);
      if (exclude >= c.first_node && exclude < c.first_node + c.node_count) {
        --size_;
      }
    }
  }

  std::uint64_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Removes and returns the element at index `pick`, emulating
  /// `candidates[pick] = candidates.back(); candidates.pop_back();`.
  int take(std::uint64_t pick) noexcept {
    const int value = value_at(pick);
    const int back = value_at(size_ - 1);
    --size_;
    if (pick < size_) set_override(pick, back);
    return value;
  }

 private:
  int value_at(std::uint64_t j) const noexcept {
    for (int k = overrides_ - 1; k >= 0; --k) {
      if (override_idx_[static_cast<std::size_t>(k)] == j) {
        return override_val_[static_cast<std::size_t>(k)];
      }
    }
    for (const NodeCategory& c : sys_->categories) {
      if (t_ < c.production_start || t_ >= c.production_end) continue;
      const bool holds_excluded =
          exclude_ >= c.first_node && exclude_ < c.first_node + c.node_count;
      auto m = static_cast<std::uint64_t>(c.node_count);
      if (holds_excluded) --m;
      if (j < m) {
        int node = c.first_node + static_cast<int>(j);
        if (holds_excluded && node >= exclude_) ++node;
        return node;
      }
      j -= m;
    }
    HPCFAIL_ASSERT(false);  // j < size() always resolves to a node
    return exclude_;
  }

  void set_override(std::uint64_t idx, int value) noexcept {
    for (int k = 0; k < overrides_; ++k) {
      if (override_idx_[static_cast<std::size_t>(k)] == idx) {
        override_val_[static_cast<std::size_t>(k)] = value;
        return;
      }
    }
    override_idx_[static_cast<std::size_t>(overrides_)] = idx;
    override_val_[static_cast<std::size_t>(overrides_)] = value;
    ++overrides_;
  }

  const SystemInfo* sys_;
  Seconds t_;
  int exclude_;
  std::uint64_t size_ = 0;
  // A burst draws at most 4 followers, so at most 4 swap overrides.
  std::array<std::uint64_t, 4> override_idx_{};
  std::array<int, 4> override_val_{};
  int overrides_ = 0;
};

// Everything node generation needs about one system, computed once and
// then shared read-only across worker threads: the intensity grid, the
// calibrated node rates, and the gap and repair samplers.
struct SystemPlan {
  const SystemScenario* scen = nullptr;
  const SystemInfo* sys = nullptr;
  const HardwareProfile* profile = nullptr;
  GapSamplers gaps;
  std::vector<LogNormal> repair{};  // repair minutes, by cause_index
  IntensityGrid grid{};
  std::vector<double> weight{};  // per-node rate weights
  double base = 0.0;             // calibrated base intensity
  double target_total = 0.0;     // expected record count (for reserve)
};

Seconds sample_repair_seconds(hpcfail::Rng& rng, const SystemPlan& plan,
                              RootCause cause) {
  // Records have minute-scale resolution; repairs take at least a minute.
  // The lognormal tail is capped at 45 days: open tickets were eventually
  // closed, and the public release contains no multi-month repairs.
  constexpr double kMaxMinutes = 45.0 * 24.0 * 60.0;
  const double minutes = plan.repair[cause_index(cause)].sample(rng);
  return std::max<Seconds>(
      60, static_cast<Seconds>(std::min(minutes, kMaxMinutes) * 60.0));
}

SystemPlan build_plan(std::uint64_t seed, const SystemInfo& sys,
                      const SystemScenario& scen) {
  const HardwareProfile& profile = profile_for(sys.hw_type);
  SystemPlan plan{.scen = &scen,
                  .sys = &sys,
                  .profile = &profile,
                  .gaps = gap_samplers(scen),
                  .grid = build_grid(sys, scen.lifecycle)};
  for (const RepairMoments& m : profile.repair) {
    plan.repair.push_back(
        LogNormal::from_mean_median(m.mean_minutes, m.median_minutes));
  }
  const IntensityGrid& grid = plan.grid;

  // Per-node rate weights: workload factor x lognormal jitter.
  plan.weight.assign(static_cast<std::size_t>(sys.nodes), 0.0);
  for (int node = 0; node < sys.nodes; ++node) {
    hpcfail::Rng wrng(hpcfail::mix_seed(seed,
                                        static_cast<std::uint64_t>(sys.id),
                                        0xA110C000ULL +
                                            static_cast<std::uint64_t>(node)));
    double w = 1.0;
    switch (sys.workload_of(node)) {
      case Workload::graphics: w = scen.graphics_factor; break;
      case Workload::frontend: w = scen.frontend_factor; break;
      case Workload::compute: break;
    }
    w *= std::exp(scen.node_jitter_sigma * dist::standard_normal(wrng));
    plan.weight[static_cast<std::size_t>(node)] = w;
  }

  // Calibrate the base rate so the expected total (including correlated
  // burst followers) matches failures_per_year * production_years.
  double ops_total = 0.0;
  double ops_early = 0.0;
  for (int node = 0; node < sys.nodes; ++node) {
    const NodeCategory& c = sys.category_for_node(node);
    const double lo = grid.at(c.production_start);
    const double hi = grid.at(c.production_end);
    const double w = plan.weight[static_cast<std::size_t>(node)];
    ops_total += w * (hi - lo);
    if (scen.early_era_end > c.production_start) {
      const double mid = grid.at(std::min(scen.early_era_end,
                                          c.production_end));
      ops_early += w * (mid - lo);
    }
  }
  HPCFAIL_ASSERT(ops_total > 0.0);
  const double early_fraction = ops_early / ops_total;
  const double mean_followers = 2.5;  // uniform 1..4 extra nodes
  const double inflation =
      1.0 + mean_followers * (early_fraction * scen.early_burst_probability +
                              (1.0 - early_fraction) *
                                  scen.late_burst_probability);
  const double target_total =
      scen.failures_per_year * sys.production_years();
  // Renewal-process excess: for a renewal process with mean-1 gaps and
  // squared CV C^2, E[N(tau)] ~ tau + (C^2 - 1)/2 for tau >> 1. With
  // overdispersed gaps (C^2 > 1) every node contributes that constant
  // extra, which is material for many-node systems; deduct it from the
  // calibration target (clamped so small targets stay positive).
  const auto weibull_cv2 = [](double k) {
    const double g1 =
        std::exp(hpcfail::stats::log_gamma_unchecked(1.0 + 1.0 / k));
    const double g2 =
        std::exp(hpcfail::stats::log_gamma_unchecked(1.0 + 2.0 / k));
    return g2 / (g1 * g1) - 1.0;
  };
  const double cv2_late = weibull_cv2(scen.interarrival_weibull_shape);
  const double cv2_early =
      std::expm1(scen.early_lognormal_sigma * scen.early_lognormal_sigma);
  // The asymptotic constant overstates the excess for nodes with few
  // events and for very heavy-tailed early-era gaps; cap it.
  const double excess_per_node =
      std::min(2.0, 0.5 * (early_fraction * (cv2_early - 1.0) +
                           (1.0 - early_fraction) * (cv2_late - 1.0)));
  const double corrected_total =
      std::max(0.5 * target_total,
               target_total - static_cast<double>(sys.nodes) *
                                  std::max(0.0, excess_per_node));
  plan.base = corrected_total / (ops_total * inflation);
  plan.target_total = target_total;
  return plan;
}

// Row writes with one capacity check per record instead of one per
// column. The store is resized up front to the shard's estimated row
// count (doubling when the estimate is exceeded); finish() shrinks it to
// the rows actually written, which for trivially-destructible columns
// never touches the written rows.
class EmitBuffer {
 public:
  EmitBuffer(ColumnStore& out, std::size_t capacity)
      : out_(&out), cap_(capacity > 0 ? capacity : 16) {
    out_->resize(cap_);
  }

  void push(const FailureRecord& r) {
    if (n_ == cap_) {
      cap_ *= 2;
      out_->resize(cap_);
    }
    out_->set_row(n_++, r);
  }

  void finish() { out_->resize(n_); }

 private:
  ColumnStore* out_;
  std::size_t cap_ = 0;
  std::size_t n_ = 0;
};

// Generates the records of nodes [node_begin, node_end) of one system —
// exactly the records the sequential per-node loop would produce for that
// range, because every node draws from its own (seed, system, node) PRNG
// stream. Records land directly in the shard's columns; no AoS staging.
ColumnStore generate_node_range(const SystemPlan& plan, std::uint64_t seed,
                                int node_begin, int node_end) {
  const SystemScenario& scen = *plan.scen;
  const SystemInfo& sys = *plan.sys;
  const HardwareProfile& profile = *plan.profile;
  const IntensityGrid& grid = plan.grid;

  ColumnStore shard;
  const double share =
      static_cast<double>(node_end - node_begin) /
      static_cast<double>(std::max(1, sys.nodes));
  EmitBuffer buf(
      shard, static_cast<std::size_t>(plan.target_total * share * 1.2) + 16);

  const auto emit = [&](int node_id, Seconds start, Seconds end, Workload w,
                        RootCause cause, DetailCause detail) {
    buf.push({.system_id = sys.id, .node_id = node_id, .start = start,
              .end = end, .workload = w, .cause = cause, .detail = detail});
  };

  // Past the decay window the unknown-cause boost is exactly zero and
  // bernoulli(0) consumes no draw, so later records can skip the months
  // arithmetic entirely. The cutoff carries a two-hour guard band so the
  // skip only covers instants where the computed boost is exactly zero.
  const Seconds boost_cutoff =
      grid.start +
      static_cast<Seconds>(
          std::ceil(scen.unknown_decay_months * kSecondsPerMonth)) +
      2 * kSecondsPerHour;

  for (int node = node_begin; node < node_end; ++node) {
    const NodeCategory& cat = sys.category_for_node(node);
    const double rate = plan.base * plan.weight[static_cast<std::size_t>(node)];
    const double tau_lo = grid.at(cat.production_start);
    const double tau_end = rate * (grid.at(cat.production_end) - tau_lo);
    if (tau_end <= 0.0) continue;

    const Workload node_workload = sys.workload_of(node);
    hpcfail::Rng rng(hpcfail::mix_seed(seed,
                                       static_cast<std::uint64_t>(sys.id),
                                       static_cast<std::uint64_t>(node)));
    InvertCursor invert(grid);
    double tau = 0.0;
    Seconds now = cat.production_start;
    for (;;) {
      const bool early = now < scen.early_era_end;
      const double gap =
          early ? plan.gaps.early.sample(rng) : plan.gaps.late.sample(rng);
      tau += gap;
      if (tau >= tau_end) break;
      now = invert(tau_lo + tau / rate);

      // Section 4: pioneer systems initially recorded most causes as
      // unknown; the boost decays as administrators learn the platform.
      double unknown_boost = 0.0;
      if (now < boost_cutoff) {
        const double months_in =
            static_cast<double>(now - grid.start) / kSecondsPerMonth;
        unknown_boost =
            scen.early_unknown_boost *
            std::max(0.0, 1.0 - months_in / scen.unknown_decay_months);
      }

      RootCause cause = RootCause::unknown;
      DetailCause detail = DetailCause::undetermined;
      if (!rng.bernoulli(unknown_boost)) {
        cause = sample_cause(rng, profile.cause_mix);
        detail = sample_detail(rng, profile.detail_mix[cause_index(cause)]);
      }
      const Seconds repair = sample_repair_seconds(rng, plan, cause);
      emit(node, now, now + repair, node_workload, cause, detail);

      // Correlated multi-node events: a site-level incident (power,
      // interconnect fabric) takes down additional nodes at the same
      // instant.
      const double burst_p = early ? scen.early_burst_probability
                                   : scen.late_burst_probability;
      if (burst_p > 0.0 && rng.bernoulli(burst_p)) {
        const auto followers = 1 + rng.uniform_index(4);  // 1..4 nodes
        BurstCandidates candidates(sys, now, node);
        for (std::uint64_t k = 0;
             k < followers && !candidates.empty(); ++k) {
          const auto pick = rng.uniform_index(candidates.size());
          const int other = candidates.take(pick);

          RootCause fcause = RootCause::unknown;
          DetailCause fdetail = DetailCause::undetermined;
          if (!rng.bernoulli(unknown_boost)) {
            fcause = rng.bernoulli(0.5) ? RootCause::environment
                                        : RootCause::network;
            fdetail =
                sample_detail(rng, profile.detail_mix[cause_index(fcause)]);
          }
          const Seconds frepair = sample_repair_seconds(rng, plan, fcause);
          emit(other, now, now + frepair, sys.workload_of(other), fcause,
               fdetail);
        }
      }
    }
  }
  buf.finish();
  return shard;
}

// Shard size for splitting one system's nodes across workers. Small
// enough that a 1024-node system yields many shards to balance, large
// enough that per-shard overhead stays negligible.
constexpr int kShardNodes = 64;

struct NodeShard {
  const SystemPlan* plan = nullptr;
  int node_begin = 0;
  int node_end = 0;
};

void append_shards(const SystemPlan& plan, std::vector<NodeShard>& shards) {
  for (int b = 0; b < plan.sys->nodes; b += kShardNodes) {
    shards.push_back(
        {&plan, b, std::min(b + kShardNodes, plan.sys->nodes)});
  }
}

// Runs the shards on the shared pool; each returns its records in
// emission order.
//
// Each shard's wall time and record count go to the per-system obs
// histograms ("synth.shard_seconds{system=N}" / "synth.shard_records{...}");
// timing is measured around the deterministic generation, never fed back
// into it, so the output is bit-identical with obs on or off.
std::vector<ColumnStore> run_shards(const std::vector<NodeShard>& shards,
                                    std::uint64_t seed) {
  const bool observed = hpcfail::obs::enabled();
  auto parts = hpcfail::parallel_map(
      shards.size(), [&shards, seed, observed](std::size_t k) {
        const NodeShard& s = shards[k];
        if (!observed) {
          return generate_node_range(*s.plan, seed, s.node_begin, s.node_end);
        }
        const auto t0 = std::chrono::steady_clock::now();
        ColumnStore shard =
            generate_node_range(*s.plan, seed, s.node_begin, s.node_end);
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          t0)
                .count();
        const std::string label =
            "{system=" + std::to_string(s.plan->sys->id) + "}";
        hpcfail::obs::Registry& reg = hpcfail::obs::registry();
        reg.histogram("synth.shard_seconds" + label).record(elapsed);
        reg.histogram("synth.shard_records" + label)
            .record(static_cast<double>(shard.size()));
        return shard;
      });
  if (observed) {
    std::size_t total = 0;
    for (const auto& part : parts) total += part.size();
    hpcfail::obs::registry().counter("synth.records_total").add(total);
  }
  return parts;
}

}  // namespace

TraceGenerator::TraceGenerator(const trace::SystemCatalog& catalog,
                               ScenarioConfig config)
    : catalog_(catalog), config_(std::move(config)) {
  HPCFAIL_EXPECTS(!config_.systems.empty(),
                  "scenario must configure at least one system");
  for (const SystemScenario& s : config_.systems) {
    HPCFAIL_EXPECTS(catalog_.contains(s.system_id),
                    "scenario references a system missing from the catalog");
    HPCFAIL_EXPECTS(s.failures_per_year > 0.0,
                    "failures_per_year must be positive");
    HPCFAIL_EXPECTS(s.interarrival_weibull_shape > 0.0,
                    "interarrival Weibull shape must be positive");
    HPCFAIL_EXPECTS(s.early_lognormal_sigma > 0.0,
                    "early lognormal sigma must be positive");
    // Builds the gap samplers generate() builds, so a shape or sigma
    // either family rejects is rejected here rather than from generate().
    gap_samplers(s);
    HPCFAIL_EXPECTS(
        s.early_burst_probability >= 0.0 && s.early_burst_probability < 1.0,
        "burst probability must be in [0,1)");
    HPCFAIL_EXPECTS(
        s.late_burst_probability >= 0.0 && s.late_burst_probability < 1.0,
        "burst probability must be in [0,1)");
    HPCFAIL_EXPECTS(
        s.early_unknown_boost >= 0.0 && s.early_unknown_boost <= 1.0,
        "unknown boost must be in [0,1]");
    HPCFAIL_EXPECTS(s.unknown_decay_months > 0.0,
                    "unknown decay window must be positive");
  }
}

std::vector<FailureRecord> TraceGenerator::generate_system(
    int system_id) const {
  const SystemScenario* scen = nullptr;
  for (const SystemScenario& s : config_.systems) {
    if (s.system_id == system_id) {
      scen = &s;
      break;
    }
  }
  HPCFAIL_EXPECTS(scen != nullptr, "system not present in the scenario");

  obs::ScopedTimer timer("synth.generate_system");
  const SystemPlan plan =
      build_plan(config_.seed, catalog_.system(system_id), *scen);
  std::vector<NodeShard> shards;
  append_shards(plan, shards);
  // Emission order, shard by shard — the exact vector the sequential
  // per-node loop builds; AoS records are reconstituted at this edge.
  auto parts = run_shards(shards, config_.seed);
  std::size_t total = 0;
  for (const auto& part : parts) total += part.size();
  std::vector<FailureRecord> all;
  all.reserve(total);
  for (const auto& part : parts) {
    const std::size_t n = part.size();
    for (std::size_t i = 0; i < n; ++i) all.push_back(part.row(i));
  }
  return all;
}

trace::FailureDataset TraceGenerator::generate() const {
  // Plans (hourly intensity grid, per-node weights, calibration) are
  // cheap; build them up front so the expensive event generation can fan
  // out per (system, node-range) shard across the shared pool. Workers
  // emit columns; the stable radix merge (trace/merge.hpp) then sorts the
  // shards into global (start, system, node) order with a single copy of
  // the rows, which from_columns adopts without re-sorting — the whole
  // pipeline never builds an AoS copy of the trace.
  obs::ScopedTimer timer("synth.generate");
  std::vector<SystemPlan> plans;
  plans.reserve(config_.systems.size());
  for (const SystemScenario& s : config_.systems) {
    plans.push_back(build_plan(config_.seed, catalog_.system(s.system_id), s));
  }
  std::vector<NodeShard> shards;
  for (const SystemPlan& plan : plans) append_shards(plan, shards);
  const std::vector<ColumnStore> parts = run_shards(shards, config_.seed);
  std::vector<const ColumnStore*> inputs;
  inputs.reserve(parts.size());
  for (const ColumnStore& p : parts) inputs.push_back(&p);
  trace::FailureDataset dataset =
      trace::FailureDataset::from_columns(trace::merge_sorted(inputs));
  timer.stop();
  if (obs::enabled() && timer.elapsed_seconds() > 0.0) {
    obs::registry()
        .gauge("synth.generate.records_per_sec")
        .set(static_cast<double>(dataset.size()) / timer.elapsed_seconds());
  }
  return dataset;
}

trace::FailureDataset generate_lanl_trace(std::uint64_t seed) {
  const TraceGenerator generator(trace::SystemCatalog::lanl(),
                                 lanl_scenario(seed));
  return generator.generate();
}

}  // namespace hpcfail::synth
