// Indexed vs legacy dataset extraction at growing trace sizes, plus the
// PR6 columnar-pipeline sweep.
//
// Default mode: the DatasetIndex exists for one reason: the copying
// accessors rescan the whole trace per query, and the per-node Fig 6
// sweep rescanned it once *per node* (O(records x nodes)). This bench
// times both paths on synthetic traces of 10k, 100k, and 1M records and
// reports the speedups, as JSON to the output path given as argv[1]
// (stdout when omitted). The legacy path is reimplemented inline because
// the copying FailureDataset accessors are gone from the library.
//
// `--pr6 [OUT.json]` runs the columnar end-to-end sweep instead: trace
// generation throughput at paper scale and at a 10M-record scale
// (realistic and stress shapes), SoA-vs-AoS scan bandwidth on the
// 10M-record trace, indexed extraction at 10M records, and batched
// per-node fitting (legacy per-family fit() calls vs the fused
// fit_report engine) on a ~1M-record trace. The JSON it writes is
// committed as BENCH_PR6.json and gated in CI by
// tools/check_bench_floor.py.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/time.hpp"
#include "dist/exponential.hpp"
#include "dist/fit.hpp"
#include "dist/gamma.hpp"
#include "dist/lognormal.hpp"
#include "dist/weibull.hpp"
#include "obs/metrics.hpp"
#include "stats/ks.hpp"
#include "stats/solver.hpp"
#include "synth/generator.hpp"
#include "synth/scenario.hpp"
#include "trace/catalog.hpp"
#include "trace/dataset.hpp"
#include "trace/index.hpp"

namespace {

using namespace hpcfail;

constexpr int kSystems = 4;
constexpr int kNodesPerSystem = 256;
constexpr int kTargetSystem = 2;

trace::FailureDataset synthetic_dataset(std::size_t records) {
  // Uniform spread over systems/nodes/time; the index cares about sizes
  // and cardinalities, not realism.
  Rng rng(2024);
  std::vector<trace::FailureRecord> out;
  out.reserve(records);
  const Seconds t0 = to_epoch(1996, 1, 1);
  for (std::size_t i = 0; i < records; ++i) {
    trace::FailureRecord r;
    r.system_id = 1 + static_cast<int>(rng.uniform_index(kSystems));
    r.node_id = static_cast<int>(rng.uniform_index(kNodesPerSystem));
    r.start = t0 + static_cast<Seconds>(rng.uniform_index(9ULL * 365 * 86400));
    r.end = r.start + 60 + static_cast<Seconds>(rng.uniform_index(86400));
    r.workload = trace::Workload::compute;
    r.detail = trace::DetailCause::memory_dimm;
    r.cause = trace::RootCause::hardware;
    out.push_back(r);
  }
  return trace::FailureDataset(std::move(out));
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The pre-index implementations, verbatim in spirit: every query is a
// full scan of records().

std::vector<trace::FailureRecord> legacy_for_system(
    const trace::FailureDataset& ds, int system_id) {
  std::vector<trace::FailureRecord> out;
  for (const trace::FailureRecord& r : ds.records()) {
    if (r.system_id == system_id) out.push_back(r);
  }
  return out;
}

std::vector<double> legacy_node_interarrivals(const trace::FailureDataset& ds,
                                              int system_id, int node_id) {
  std::vector<double> gaps;
  Seconds prev = 0;
  bool first = true;
  for (const trace::FailureRecord& r : ds.records()) {
    if (r.system_id != system_id || r.node_id != node_id) continue;
    if (!first) gaps.push_back(static_cast<double>(r.start - prev));
    prev = r.start;
    first = false;
  }
  return gaps;
}

std::map<int, std::size_t> legacy_failures_per_node(
    const trace::FailureDataset& ds, int system_id) {
  std::map<int, std::size_t> counts;
  for (const trace::FailureRecord& r : ds.records()) {
    if (r.system_id == system_id) ++counts[r.node_id];
  }
  return counts;
}

struct Row {
  std::size_t records = 0;
  double index_build_ms = 0.0;
  double legacy_per_node_ms = 0.0;
  double indexed_per_node_ms = 0.0;
  double legacy_for_system_ms = 0.0;
  double indexed_for_system_ms = 0.0;
  double per_node_speedup = 0.0;
  double for_system_speedup = 0.0;
};

Row run_size(std::size_t records) {
  Row row;
  row.records = records;
  const trace::FailureDataset ds = synthetic_dataset(records);

  auto t = std::chrono::steady_clock::now();
  (void)ds.index();  // one-time build, timed separately
  row.index_build_ms = ms_since(t);

  // Fig 6 per-node sweep, legacy: one full scan per node.
  t = std::chrono::steady_clock::now();
  std::size_t legacy_gaps = 0;
  for (const auto& [node, count] :
       legacy_failures_per_node(ds, kTargetSystem)) {
    legacy_gaps += legacy_node_interarrivals(ds, kTargetSystem, node).size();
  }
  row.legacy_per_node_ms = ms_since(t);

  // Same sweep through the grouped extractor.
  t = std::chrono::steady_clock::now();
  std::size_t indexed_gaps = 0;
  for (const trace::NodeInterarrivalGroup& g :
       ds.view().for_system(kTargetSystem).node_interarrival_groups()) {
    indexed_gaps += g.gaps_seconds.size();
  }
  row.indexed_per_node_ms = ms_since(t);
  if (legacy_gaps != indexed_gaps) {
    throw LogicError("extraction mismatch: legacy " +
                     std::to_string(legacy_gaps) + " vs indexed " +
                     std::to_string(indexed_gaps));
  }

  // Per-system scoping, 64 queries each way.
  constexpr int kQueries = 64;
  t = std::chrono::steady_clock::now();
  std::size_t legacy_total = 0;
  for (int q = 0; q < kQueries; ++q) {
    legacy_total +=
        legacy_for_system(ds, 1 + q % kSystems).size();
  }
  row.legacy_for_system_ms = ms_since(t);

  t = std::chrono::steady_clock::now();
  std::size_t indexed_total = 0;
  for (int q = 0; q < kQueries; ++q) {
    indexed_total += ds.view().for_system(1 + q % kSystems).size();
  }
  row.indexed_for_system_ms = ms_since(t);
  if (legacy_total != indexed_total) {
    throw LogicError("for_system mismatch");
  }

  row.per_node_speedup =
      row.indexed_per_node_ms > 0.0
          ? row.legacy_per_node_ms / row.indexed_per_node_ms
          : 0.0;
  row.for_system_speedup =
      row.indexed_for_system_ms > 0.0
          ? row.legacy_for_system_ms / row.indexed_for_system_ms
          : 0.0;
  return row;
}

void write_json(std::ostream& out, const std::vector<Row>& rows) {
  out << "{\n  \"benchmark\": \"dataset_index_vs_legacy\",\n"
      << "  \"target_system_nodes\": " << kNodesPerSystem << ",\n"
      << "  \"sizes\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"records\": " << r.records
        << ", \"index_build_ms\": " << r.index_build_ms
        << ", \"per_node_legacy_ms\": " << r.legacy_per_node_ms
        << ", \"per_node_indexed_ms\": " << r.indexed_per_node_ms
        << ", \"per_node_speedup\": " << r.per_node_speedup
        << ", \"for_system_legacy_ms\": " << r.legacy_for_system_ms
        << ", \"for_system_indexed_ms\": " << r.indexed_for_system_ms
        << ", \"for_system_speedup\": " << r.for_system_speedup << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

// ---------------------------------------------------------------------
// PR6 columnar-pipeline sweep.

// LANL scenario with every system's failure volume scaled up. The
// "stress" shape (unit Weibull, no eras/bursts) isolates the storage and
// merge pipeline from the transcendental sampling cost; "realistic"
// keeps the calibrated paper shape (pow() per gap, era mixtures).
synth::ScenarioConfig scaled_scenario(double scale, bool stress) {
  synth::ScenarioConfig cfg = synth::lanl_scenario(2024);
  for (auto& s : cfg.systems) {
    s.failures_per_year *= scale;
    if (stress) {
      s.interarrival_weibull_shape = 1.0;
      s.early_era_end = 0;
      s.early_burst_probability = 0.0;
      s.late_burst_probability = 0.0;
    }
  }
  return cfg;
}

struct GenRow {
  std::string profile;
  double scale = 0.0;
  std::size_t records = 0;
  double seconds = 0.0;
  double records_per_sec = 0.0;       ///< wall-clock, incl. validation
  double gauge_records_per_sec = 0.0; ///< the generator's own obs gauge
};

GenRow run_generation(const std::string& profile, double scale, bool stress,
                      trace::FailureDataset* keep) {
  GenRow row;
  row.profile = profile;
  row.scale = scale;
  const synth::TraceGenerator gen(trace::SystemCatalog::lanl(),
                                  scaled_scenario(scale, stress));
  const auto t = std::chrono::steady_clock::now();
  trace::FailureDataset ds = gen.generate();
  row.seconds = ms_since(t) / 1e3;
  row.records = ds.size();
  row.records_per_sec = static_cast<double>(row.records) / row.seconds;
  row.gauge_records_per_sec =
      obs::registry().gauge("synth.generate.records_per_sec").value();
  if (keep != nullptr) *keep = std::move(ds);
  return row;
}

struct ScanRow {
  std::size_t records = 0;
  double soa_ms = 0.0;  ///< downtime sum over the start/end columns
  double aos_ms = 0.0;  ///< same sum over pre-materialized AoS records
  double speedup = 0.0;
  std::size_t column_bytes = 0;  ///< ColumnStore heap footprint
  std::size_t aos_bytes = 0;     ///< sizeof(FailureRecord) * records
};

ScanRow run_scan(const trace::FailureDataset& ds) {
  ScanRow row;
  row.records = ds.size();
  row.column_bytes = ds.columns().bytes();
  const std::vector<trace::FailureRecord> aos = ds.records().to_records();
  row.aos_bytes = aos.size() * sizeof(trace::FailureRecord);

  // The analyzers' common pattern: one or two fields of every record.
  // SoA touches 16 bytes per record, AoS strides the whole struct.
  std::int64_t soa_sum = 0;
  std::int64_t aos_sum = 0;
  constexpr int kReps = 3;
  for (int rep = 0; rep < kReps; ++rep) {
    soa_sum = 0;
    const auto starts = ds.records().starts();
    const auto ends = ds.records().ends();
    auto t = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < starts.size(); ++i) {
      soa_sum += ends[i] - starts[i];
    }
    const double soa = ms_since(t);
    row.soa_ms = rep == 0 ? soa : std::min(row.soa_ms, soa);

    aos_sum = 0;
    t = std::chrono::steady_clock::now();
    for (const trace::FailureRecord& r : aos) {
      aos_sum += r.end - r.start;
    }
    const double aos_t = ms_since(t);
    row.aos_ms = rep == 0 ? aos_t : std::min(row.aos_ms, aos_t);
  }
  if (soa_sum != aos_sum) {
    throw LogicError("scan mismatch: SoA downtime sum != AoS downtime sum");
  }
  row.speedup = row.soa_ms > 0.0 ? row.aos_ms / row.soa_ms : 0.0;
  return row;
}

struct ExtractRow {
  std::size_t records = 0;
  double index_build_ms = 0.0;
  double per_node_ms = 0.0;  ///< grouped interarrival sweep, all systems
  double per_node_records_per_sec = 0.0;
  std::size_t gaps = 0;
};

ExtractRow run_extract(const trace::FailureDataset& ds) {
  ExtractRow row;
  row.records = ds.size();
  auto t = std::chrono::steady_clock::now();
  (void)ds.index();
  row.index_build_ms = ms_since(t);

  t = std::chrono::steady_clock::now();
  for (const int system : ds.system_ids()) {
    for (const trace::NodeInterarrivalGroup& g :
         ds.view().for_system(system).node_interarrival_groups()) {
      row.gaps += g.gaps_seconds.size();
    }
  }
  row.per_node_ms = ms_since(t);
  row.per_node_records_per_sec =
      static_cast<double>(row.records) / (row.per_node_ms / 1e3);
  return row;
}

struct FitRow {
  std::size_t records = 0;  ///< trace size the samples came from
  std::size_t samples = 0;  ///< per-node samples fitted
  std::size_t points = 0;   ///< total observations across samples
  double seed_seconds = 0.0;
  double legacy_seconds = 0.0;
  double fused_seconds = 0.0;
  double seed_records_per_sec = 0.0;
  double legacy_records_per_sec = 0.0;
  double fused_records_per_sec = 0.0;
  double speedup_vs_seed = 0.0;
  double speedup = 0.0;  ///< fused vs per-family fit() calls
};

// The original fitting engine, reimplemented verbatim from the repo's
// seed so the sweep can still measure against it: the weibull solver
// re-takes every log on every Newton pass (and evaluates score and slope
// as two separate passes), and every family's KS runs as a
// std::function-dispatched full scan over a freshly copied-and-sorted
// sample. The gamma/lognormal/exponential MLEs come from the library's
// span fits, which are now the unified SuffStats engine (one pass of
// shifted moments, then the closed forms) rather than the seed's own
// reductions.
dist::FitResult seed_fit(dist::Family family, std::span<const double> xs,
                         double floor_at) {
  dist::FitResult result;
  result.family = family;
  switch (family) {
    case dist::Family::exponential:
      result.model = std::make_unique<dist::Exponential>(
          dist::Exponential::fit_mle(xs));
      break;
    case dist::Family::weibull: {
      std::vector<double> data(xs.begin(), xs.end());
      double mean_log = 0.0;
      for (double& v : data) {
        if (v < floor_at) v = floor_at;
        mean_log += std::log(v);
      }
      mean_log /= static_cast<double>(data.size());
      bool all_equal = true;
      for (const double v : data) {
        if (v != data.front()) {
          all_equal = false;
          break;
        }
      }
      if (all_equal) {
        throw FitError("weibull fit is degenerate on a constant sample");
      }
      const auto score_and_slope = [&](double k, double& slope) {
        double sw = 0.0;
        double swl = 0.0;
        double swl2 = 0.0;
        for (const double v : data) {
          const double lx = std::log(v);
          const double w = std::exp(k * (lx - mean_log));
          sw += w;
          swl += w * lx;
          swl2 += w * lx * lx;
        }
        const double ratio = swl / sw;
        slope = (swl2 / sw - ratio * ratio) + 1.0 / (k * k);
        return ratio - 1.0 / k - mean_log;
      };
      const auto score = [&](double k) {
        double unused;
        return score_and_slope(k, unused);
      };
      const auto slope_fn = [&](double k) {
        double slope;
        score_and_slope(k, slope);
        return slope;
      };
      double lo = 1e-3;
      double hi = 10.0;
      stats::expand_bracket(score, lo, hi, /*positive_only=*/true);
      const double k = stats::newton_bracketed(score, slope_fn, lo, hi);
      double sw = 0.0;
      for (const double v : data) {
        sw += std::exp(k * (std::log(v) - mean_log));
      }
      const double scale = std::exp(
          mean_log + std::log(sw / static_cast<double>(data.size())) / k);
      result.model = std::make_unique<dist::Weibull>(k, scale);
      break;
    }
    case dist::Family::gamma:
      result.model = std::make_unique<dist::GammaDist>(
          dist::GammaDist::fit_mle(xs, floor_at));
      break;
    case dist::Family::lognormal:
      result.model = std::make_unique<dist::LogNormal>(
          dist::LogNormal::fit_mle(xs, floor_at));
      break;
    default:
      throw InvalidArgument("seed_fit covers the four standard families");
  }
  std::vector<double> eval(xs.begin(), xs.end());
  for (double& v : eval) {
    if (v < floor_at) v = floor_at;
  }
  result.nll = -result.model->log_likelihood(eval);
  result.aic = 2.0 * dist::parameter_count(family) + 2.0 * result.nll;
  const dist::Distribution& model = *result.model;
  result.ks = stats::ks_statistic(
      eval, [&model](double x) { return model.cdf(x); });
  result.ks_pvalue = stats::ks_pvalue(result.ks, eval.size());
  return result;
}

// Fitting throughput on a set of interarrival samples. Three engines:
// "seed" is the original engine verbatim (above); "legacy" is one
// independent in-tree fit() call per family, each re-sorting the sample,
// recomputing the log reductions, and running its KS scan in isolation;
// "fused" is fit_report_many, which shares one SuffStats pass and one
// sorted copy across families. All run on one thread so the ratios are
// algorithmic, not scheduling.
FitRow run_fitting(std::vector<std::vector<double>> samples,
                   std::size_t trace_records) {
  FitRow row;
  row.records = trace_records;
  constexpr double kFloorSeconds = 1.0;  // second-resolution interarrivals
  row.samples = samples.size();
  for (const auto& xs : samples) row.points += xs.size();

  set_parallelism(1);
  auto t = std::chrono::steady_clock::now();
  std::size_t seed_ok = 0;
  for (const auto& xs : samples) {
    for (const dist::Family family : dist::standard_families()) {
      try {
        const dist::FitResult r = seed_fit(family, xs, kFloorSeconds);
        seed_ok += r.model != nullptr ? 1 : 0;
      } catch (const Error&) {
      }
    }
  }
  row.seed_seconds = ms_since(t) / 1e3;

  t = std::chrono::steady_clock::now();
  std::size_t legacy_ok = 0;
  for (const auto& xs : samples) {
    for (const dist::Family family : dist::standard_families()) {
      try {
        const dist::FitResult r = dist::fit(family, xs, kFloorSeconds);
        legacy_ok += r.model != nullptr ? 1 : 0;
      } catch (const Error&) {
      }
    }
  }
  row.legacy_seconds = ms_since(t) / 1e3;

  t = std::chrono::steady_clock::now();
  const std::vector<dist::FitReport> reports =
      dist::fit_report_many(samples, dist::standard_families(), kFloorSeconds);
  row.fused_seconds = ms_since(t) / 1e3;
  set_parallelism(0);

  std::size_t fused_ok = 0;
  for (const dist::FitReport& r : reports) fused_ok += r.size();
  if (legacy_ok != fused_ok || seed_ok != fused_ok) {
    throw LogicError("fit count mismatch: seed " + std::to_string(seed_ok) +
                     " / legacy " + std::to_string(legacy_ok) + " vs fused " +
                     std::to_string(fused_ok));
  }

  row.seed_records_per_sec =
      static_cast<double>(row.points) / row.seed_seconds;
  row.legacy_records_per_sec =
      static_cast<double>(row.points) / row.legacy_seconds;
  row.fused_records_per_sec =
      static_cast<double>(row.points) / row.fused_seconds;
  row.speedup_vs_seed =
      row.fused_seconds > 0.0 ? row.seed_seconds / row.fused_seconds : 0.0;
  row.speedup =
      row.fused_seconds > 0.0 ? row.legacy_seconds / row.fused_seconds : 0.0;
  return row;
}

void write_fit_row(std::ostream& out, const FitRow& fit) {
  out << "{\"records\": " << fit.records << ", \"samples\": " << fit.samples
      << ", \"points\": " << fit.points
      << ", \"seed_seconds\": " << fit.seed_seconds
      << ", \"legacy_seconds\": " << fit.legacy_seconds
      << ", \"fused_seconds\": " << fit.fused_seconds
      << ", \"seed_records_per_sec\": " << fit.seed_records_per_sec
      << ", \"legacy_records_per_sec\": " << fit.legacy_records_per_sec
      << ", \"fused_records_per_sec\": " << fit.fused_records_per_sec
      << ", \"speedup_vs_seed\": " << fit.speedup_vs_seed
      << ", \"speedup_vs_per_family\": " << fit.speedup << "}";
}

void write_pr6_json(std::ostream& out, const std::vector<GenRow>& gens,
                    const ScanRow& scan, const ExtractRow& extract,
                    const FitRow& fit, const FitRow& fit_pooled) {
  out << "{\n  \"benchmark\": \"pr6_columnar_pipeline\",\n"
      << "  \"generation\": [\n";
  for (std::size_t i = 0; i < gens.size(); ++i) {
    const GenRow& g = gens[i];
    out << "    {\"profile\": \"" << g.profile << "\", \"scale\": " << g.scale
        << ", \"records\": " << g.records << ", \"seconds\": " << g.seconds
        << ", \"records_per_sec\": " << g.records_per_sec
        << ", \"gauge_records_per_sec\": " << g.gauge_records_per_sec << "}"
        << (i + 1 < gens.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"scan\": {\"records\": " << scan.records
      << ", \"soa_ms\": " << scan.soa_ms << ", \"aos_ms\": " << scan.aos_ms
      << ", \"speedup\": " << scan.speedup
      << ", \"column_bytes\": " << scan.column_bytes
      << ", \"aos_bytes\": " << scan.aos_bytes << "},\n"
      << "  \"extraction\": {\"records\": " << extract.records
      << ", \"index_build_ms\": " << extract.index_build_ms
      << ", \"per_node_ms\": " << extract.per_node_ms
      << ", \"per_node_records_per_sec\": " << extract.per_node_records_per_sec
      << ", \"gaps\": " << extract.gaps << "},\n"
      << "  \"fitting\": {\n    \"per_node\": ";
  write_fit_row(out, fit);
  out << ",\n    \"pooled\": ";
  write_fit_row(out, fit_pooled);
  out << "\n  }\n}\n";
}

int run_pr6(const char* out_path) {
  std::vector<GenRow> gens;
  gens.push_back(run_generation("realistic", 1.0, false, nullptr));
  std::cerr << "gen scale 1 realistic: " << gens.back().records << " records, "
            << gens.back().records_per_sec / 1e6 << " M rec/s\n";
  gens.push_back(run_generation("realistic", 390.0, false, nullptr));
  std::cerr << "gen scale 390 realistic: " << gens.back().records
            << " records, " << gens.back().records_per_sec / 1e6
            << " M rec/s\n";
  trace::FailureDataset big;
  gens.push_back(run_generation("stress", 390.0, true, &big));
  std::cerr << "gen scale 390 stress: " << gens.back().records << " records, "
            << gens.back().records_per_sec / 1e6 << " M rec/s\n";

  const ScanRow scan = run_scan(big);
  std::cerr << "scan " << scan.records << " records: SoA " << scan.soa_ms
            << " ms vs AoS " << scan.aos_ms << " ms (" << scan.speedup
            << "x)\n";
  const ExtractRow extract = run_extract(big);
  std::cerr << "extract " << extract.records << " records: index "
            << extract.index_build_ms << " ms, per-node sweep "
            << extract.per_node_ms << " ms\n";
  big = trace::FailureDataset();  // release ~1 GB before the fitting trace

  trace::FailureDataset mid;
  (void)run_generation("realistic", 39.0, false, &mid);

  // The paper's two views of the failure process at ~1M records: the
  // per-node Fig 6 sweep (thousands of small samples) and the pooled
  // system-wide interarrival fit (a few ~100k-point samples, where the
  // adaptive KS pruning dominates).
  std::vector<std::vector<double>> per_node;
  std::vector<std::vector<double>> pooled;
  for (const int system : mid.system_ids()) {
    const trace::DatasetView view = mid.view().for_system(system);
    for (const trace::NodeInterarrivalGroup& g :
         view.node_interarrival_groups()) {
      if (g.gaps_seconds.size() >= 2) per_node.push_back(g.gaps_seconds);
    }
    std::vector<double> gaps = view.system_interarrivals();
    if (gaps.size() >= 2) pooled.push_back(std::move(gaps));
  }

  const FitRow fit = run_fitting(std::move(per_node), mid.size());
  std::cerr << "fit per-node: " << fit.points << " points over " << fit.samples
            << " nodes: seed " << fit.seed_seconds << " s, per-family "
            << fit.legacy_seconds << " s, fused " << fit.fused_seconds
            << " s (" << fit.speedup_vs_seed << "x vs seed)\n";
  const FitRow fit_pooled = run_fitting(std::move(pooled), mid.size());
  std::cerr << "fit pooled: " << fit_pooled.points << " points over "
            << fit_pooled.samples << " systems: seed "
            << fit_pooled.seed_seconds << " s, per-family "
            << fit_pooled.legacy_seconds << " s, fused "
            << fit_pooled.fused_seconds << " s ("
            << fit_pooled.speedup_vs_seed << "x vs seed)\n";

  if (out_path != nullptr) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cannot open " << out_path << "\n";
      return 1;
    }
    write_pr6_json(out, gens, scan, extract, fit, fit_pooled);
  } else {
    write_pr6_json(std::cout, gens, scan, extract, fit, fit_pooled);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--pr6") {
    return run_pr6(argc > 2 ? argv[2] : nullptr);
  }
  std::vector<Row> rows;
  for (const std::size_t size : {10'000ULL, 100'000ULL, 1'000'000ULL}) {
    rows.push_back(run_size(size));
    std::cerr << size << " records: per-node sweep "
              << rows.back().legacy_per_node_ms << " ms legacy vs "
              << rows.back().indexed_per_node_ms << " ms indexed ("
              << rows.back().per_node_speedup << "x)\n";
  }
  if (argc > 1) {
    std::ofstream out(argv[1]);
    if (!out) {
      std::cerr << "cannot open " << argv[1] << "\n";
      return 1;
    }
    write_json(out, rows);
  } else {
    write_json(std::cout, rows);
  }
  return 0;
}
