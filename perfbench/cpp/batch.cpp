// batch_pipeline: the ROADMAP batch path, one closed-loop pass at a time
// at set_parallelism(4).
//
// One pass: generate the LANL scenario with every system's failure rate
// x39 (~1.0M records) -> write_csv + read_csv in memory -> validate ->
// index -> per-node and pooled gap extraction -> fit_report_many -> all 13
// analyzers over every system -> render the report text. The pass's
// digest is the FNV-1a of that text.
//
// Checks: read_csv(write_csv(ds)) is column-identical to ds on every pass
// (up to the order of rows with equal keys, see harness.hpp); every
// pass renders the first pass's digest; and a pass on a x3 trace renders
// the same digest at 1 and at 4 threads (the x3 size keeps the
// single-threaded reference inside the run budget). The 4-thread x3 pass
// is also the untimed warm-up.
//
// Set-up (timed, median of 3): scenario construction plus the
// single-threaded x3 reference pass.
#include <algorithm>
#include <array>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/availability.hpp"
#include "analysis/correlation.hpp"
#include "analysis/hazard.hpp"
#include "analysis/interarrival.hpp"
#include "analysis/lifetime.hpp"
#include "analysis/outliers.hpp"
#include "analysis/periodicity.hpp"
#include "analysis/rates.hpp"
#include "analysis/repair.hpp"
#include "analysis/root_cause.hpp"
#include "analysis/trend.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "common/time.hpp"
#include "dist/fit.hpp"
#include "harness.hpp"
#include "report/ascii_chart.hpp"
#include "report/table.hpp"
#include "synth/generator.hpp"
#include "trace/catalog.hpp"
#include "trace/index.hpp"
#include "trace/io.hpp"
#include "trace/validate.hpp"

namespace perfbench {
namespace {

using namespace hpcfail;

constexpr unsigned kThreads = 4;
constexpr double kGapFloor = 1.0;  // second-resolution gaps, exact zeros

synth::ScenarioConfig scaled_scenario(std::uint64_t seed, double scale) {
  synth::ScenarioConfig cfg = synth::lanl_scenario(seed);
  for (synth::SystemScenario& s : cfg.systems) s.failures_per_year *= scale;
  return cfg;
}

/// Damages one row of the CSV text (a "1" put in front of the first data
/// row's node id, so node n reads back as 1n) for the round-trip check
/// to catch.
void corrupt_first_row(std::string& csv) {
  const std::size_t row = csv.find('\n') + 1;
  csv.insert(csv.find(',', row) + 1, "1");
}

std::string fits_line(const dist::FitReport& fits) {
  if (fits.empty()) return "none";
  std::string out;
  for (const dist::FitResult& f : fits) {
    if (!out.empty()) out += " > ";
    out += dist::to_string(f.family) + "(" + format_double(f.nll, 10) + ")";
  }
  return out;
}

/// Every analyzer's output for one pass, in the order they ran.
struct Analyses {
  analysis::RootCauseReport root_cause;
  std::vector<analysis::SystemRate> rates;
  std::vector<analysis::NodeDistributionReport> node_distribution;
  std::vector<analysis::LifetimeCurve> lifetime;
  analysis::PeriodicityReport periodicity;
  std::vector<analysis::InterarrivalReport> interarrival;
  std::vector<std::vector<analysis::NodeInterarrivalFits>> per_node_fits;
  std::vector<analysis::HazardReport> hazard;
  analysis::RepairReport repair;
  std::vector<analysis::SystemAvailability> availability;
  std::vector<analysis::CorrelationReport> correlation;
  std::vector<analysis::TrendReport> trend;
  std::vector<analysis::OutlierReport> outliers;
  std::vector<std::string> unconverged;  ///< analyzer calls that threw
};

std::string render(const trace::FailureDataset& ds,
                   const trace::ValidationReport& validation,
                   const std::vector<dist::FitReport>& node_fits,
                   const std::vector<dist::FitReport>& pooled_fits,
                   const std::vector<int>& systems, const Analyses& a) {
  std::ostringstream out;
  out << "hpcfail pipeline report: " << ds.size() << " records, "
      << format_timestamp(ds.first_start()) << " .. "
      << format_timestamp(ds.last_end()) << "\n";
  out << "validation: " << validation.records_checked << " checked, "
      << validation.issues.size() << " issues\n\n";

  std::vector<std::pair<std::string, double>> bars;
  for (const trace::RootCause cause : trace::kAllRootCauses) {
    bars.emplace_back(trace::to_string(cause),
                      a.root_cause.all.count_percent[analysis::breakdown_index(
                          cause)]);
  }
  report::bar_chart(out, "failures by root cause (% of records)", bars);

  report::TextTable rates({"system", "failures", "fail/yr", "fail/yr/proc"});
  for (const analysis::SystemRate& r : a.rates) {
    rates.add_row(std::to_string(r.system_id),
                  {static_cast<double>(r.failures), r.failures_per_year,
                   r.failures_per_year_per_proc},
                  10);
  }
  rates.render(out);
  report::TextTable availability(
      {"system", "downtime (h)", "availability", "node MTBF (h)"});
  for (const analysis::SystemAvailability& s : a.availability) {
    availability.add_row(
        s.system_id == 0 ? "site" : std::to_string(s.system_id),
        {s.downtime_hours, s.availability, s.node_mtbf_hours}, 10);
  }
  availability.render(out);

  std::vector<std::pair<std::string, double>> hours;
  for (std::size_t h = 0; h < a.periodicity.by_hour.size(); ++h) {
    hours.emplace_back(std::to_string(h), a.periodicity.by_hour[h]);
  }
  report::bar_chart(out, "failures by hour of day", hours);
  out << "day/night " << format_double(a.periodicity.day_night_ratio, 10)
      << ", weekday/weekend "
      << format_double(a.periodicity.weekday_weekend_ratio, 10) << "\n\n";

  report::TextTable per_system(
      {"system", "gfx share", "peak month", "gaps", "gap C^2", "zero frac",
       "nodes fitted", "hazard slope", "bursts", "dispersion", "MTBF growth",
       "outliers"});
  for (std::size_t i = 0; i < systems.size(); ++i) {
    per_system.add_row(
        std::to_string(systems[i]),
        {a.node_distribution[i].graphics_failure_fraction,
         static_cast<double>(a.lifetime[i].peak_month),
         static_cast<double>(a.interarrival[i].gaps_seconds.size()),
         a.interarrival[i].summary.cv2, a.interarrival[i].zero_fraction,
         static_cast<double>(a.per_node_fits[i].size()),
         a.hazard[i].log_log_slope,
         static_cast<double>(a.correlation[i].bursts.burst_events),
         a.correlation[i].daily_dispersion, a.trend[i].mtbf_growth,
         static_cast<double>(a.outliers[i].significant_count)},
        10);
  }
  per_system.render(out);

  out << "\nsystem-wide interarrival fits (pipeline pooled / analyzer):\n";
  for (std::size_t i = 0; i < systems.size(); ++i) {
    out << systems[i] << ": "
        << (i < pooled_fits.size() ? fits_line(pooled_fits[i]) : "none")
        << " | " << fits_line(a.interarrival[i].fits) << " | counts "
        << fits_line(a.node_distribution[i].count_fits) << "\n";
  }

  // Per-node fits: the best family's tally and the summed best nll, from
  // both the pipeline's batched fit and the per_node_fits analyzer.
  std::array<std::size_t, 8> best_tally{};
  double best_nll = 0.0;
  std::size_t failed = 0;
  for (const dist::FitReport& r : node_fits) {
    failed += r.failed_families;
    if (r.empty()) continue;
    ++best_tally[static_cast<std::size_t>(r.best().family)];
    best_nll += r.best().nll;
  }
  double analyzer_nll = 0.0;
  for (const auto& nodes : a.per_node_fits) {
    for (const analysis::NodeInterarrivalFits& n : nodes) {
      if (!n.fits.empty()) analyzer_nll += n.fits.best().nll;
    }
  }
  out << "per-node fits: " << node_fits.size() << " samples, best";
  for (std::size_t f = 0; f < best_tally.size(); ++f) {
    if (best_tally[f] == 0) continue;
    out << " " << dist::to_string(static_cast<dist::Family>(f)) << "="
        << best_tally[f];
  }
  out << ", summed nll " << format_double(best_nll, 12) << " / "
      << format_double(analyzer_nll, 12) << ", failed families " << failed
      << "\n\n";

  report::TextTable repair({"cause", "mean (min)", "median", "C^2", "n"});
  for (const analysis::RepairByCause& c : a.repair.by_cause) {
    repair.add_row(trace::to_string(c.cause),
                   {c.stats.mean, c.stats.median, c.stats.cv2,
                    static_cast<double>(c.stats.n)},
                   10);
  }
  repair.render(out);
  out << "repair fits: " << fits_line(a.repair.fits) << "\n";
  for (const analysis::RepairBySystem& s : a.repair.by_system) {
    out << "repair " << s.system_id << ": " << fits_line(s.fits) << "\n";
  }
  for (const std::string& what : a.unconverged) {
    out << "unconverged: " << what << "\n";
  }
  return std::move(out).str();
}

struct PassResult {
  std::uint64_t digest = 0;
  std::size_t records = 0;
  bool roundtrip_identical = false;
  double dataset_mb = 0.0;
  double index_rss_mb = 0.0;
  std::size_t fit_points = 0;
  std::size_t fit_families = 0;
  std::size_t fit_failed = 0;
  std::size_t tied_rows = 0;       ///< rows sharing a (start, system, node)
  std::size_t numeric_errors = 0;  ///< analyzer calls that threw
};

PassResult run_pass(const synth::ScenarioConfig& cfg, Tracer& tracer,
                    std::uint64_t pass, bool corrupt) {
  const trace::SystemCatalog& catalog = trace::SystemCatalog::lanl();
  PassResult result;
  SpanScope pass_span(tracer, "batch.pass", pass);

  trace::FailureDataset generated;
  {
    SpanScope s(tracer, "synth.generate", pass, /*cpu=*/true);
    generated = synth::TraceGenerator(catalog, cfg).generate();
  }
  std::string csv;
  {
    SpanScope s(tracer, "trace.write_csv", pass);
    std::ostringstream out;
    trace::write_csv(out, generated);
    csv = std::move(out).str();
  }
  if (corrupt) corrupt_first_row(csv);
  trace::FailureDataset ds;
  {
    SpanScope s(tracer, "trace.read_csv", pass);
    std::istringstream in(std::move(csv));
    ds = trace::read_csv(in);
  }
  result.roundtrip_identical = columns_equal(generated, ds, &result.tied_rows);
  if (!result.roundtrip_identical) return result;  // the rest would be noise
  generated = trace::FailureDataset();
  result.records = ds.size();
  result.dataset_mb =
      static_cast<double>(ds.columns().bytes()) / (1024.0 * 1024.0);

  trace::ValidationReport validation;
  {
    SpanScope s(tracer, "trace.validate", pass);
    validation = trace::validate(ds, catalog);
  }
  {
    const double rss_before = tracer.enabled() ? current_rss_mb() : 0.0;
    SpanScope s(tracer, "trace.index", pass, /*cpu=*/true);
    (void)ds.index();
    if (tracer.enabled()) result.index_rss_mb = current_rss_mb() - rss_before;
  }

  std::vector<int> systems;
  std::vector<std::vector<double>> per_node;
  std::vector<std::vector<double>> pooled;
  {
    SpanScope s(tracer, "trace.extract", pass);
    systems = ds.system_ids();
    for (const int system : systems) {
      const trace::DatasetView view = ds.view().for_system(system);
      for (trace::NodeInterarrivalGroup& g : view.node_interarrival_groups()) {
        if (g.gaps_seconds.size() >= 2) {
          per_node.push_back(std::move(g.gaps_seconds));
        }
      }
      std::vector<double> gaps = view.system_interarrivals();
      if (gaps.size() >= 2) pooled.push_back(std::move(gaps));
    }
  }
  std::vector<dist::FitReport> node_fits;
  std::vector<dist::FitReport> pooled_fits;
  {
    SpanScope s(tracer, "dist.fit", pass, /*cpu=*/true);
    node_fits = dist::fit_report_many(per_node, dist::standard_families(),
                                      kGapFloor);
    pooled_fits = dist::fit_report_many(pooled, dist::standard_families(),
                                        kGapFloor);
  }
  for (const auto* samples : {&per_node, &pooled}) {
    for (const std::vector<double>& xs : *samples) {
      result.fit_points += xs.size();
    }
  }
  for (const auto* reports : {&node_fits, &pooled_fits}) {
    for (const dist::FitReport& r : *reports) {
      result.fit_families += r.size() + r.failed_families;
      result.fit_failed += r.failed_families;
    }
  }
  per_node = {};
  pooled = {};

  Analyses a;
  const auto per_system = [&](const char* name, auto& out, auto&& fn) {
    SpanScope s(tracer, name, pass);
    out.reserve(systems.size());
    for (const int system : systems) {
      try {
        out.push_back(fn(system));
      } catch (const NumericError& e) {
        // The library's typed numeric failure (at x39 the outlier
        // p-values' incomplete-gamma series stops converging on the
        // busiest nodes): rendered into the report, not a failed pass.
        out.emplace_back();
        a.unconverged.push_back(std::string(name) + " system " +
                                std::to_string(system) + ": " + e.what());
      }
    }
  };
  {
    SpanScope s(tracer, "analysis.root_cause", pass);
    a.root_cause = analysis::root_cause_breakdown(ds, catalog);
  }
  {
    SpanScope s(tracer, "analysis.rates", pass);
    a.rates = analysis::failure_rates(ds, catalog);
  }
  per_system("analysis.node_distribution", a.node_distribution, [&](int id) {
    return analysis::node_distribution(ds, catalog, id);
  });
  per_system("analysis.lifetime", a.lifetime, [&](int id) {
    return analysis::lifetime_curve(ds, catalog, id);
  });
  {
    SpanScope s(tracer, "analysis.periodicity", pass);
    a.periodicity = analysis::periodicity(ds);
  }
  per_system("analysis.interarrival", a.interarrival, [&](int id) {
    analysis::InterarrivalQuery query;
    query.system_id = id;
    return analysis::interarrival_analysis(ds, query);
  });
  per_system("analysis.per_node_fits", a.per_node_fits, [&](int id) {
    return analysis::per_node_interarrival_fits(ds, id);
  });
  per_system("analysis.hazard", a.hazard, [&](int id) {
    return analysis::node_hazard_analysis(ds, id);
  });
  {
    SpanScope s(tracer, "analysis.repair", pass);
    a.repair = analysis::repair_analysis(ds, catalog);
  }
  {
    SpanScope s(tracer, "analysis.availability", pass);
    a.availability = analysis::availability_analysis(ds, catalog);
  }
  per_system("analysis.correlation", a.correlation, [&](int id) {
    return analysis::correlation_analysis(ds, id);
  });
  per_system("analysis.trend", a.trend, [&](int id) {
    return analysis::reliability_trend(ds, catalog, id);
  });
  per_system("analysis.outliers", a.outliers, [&](int id) {
    return analysis::node_outlier_analysis(ds, catalog, id);
  });

  std::string text;
  {
    SpanScope s(tracer, "report.render", pass);
    text = render(ds, validation, node_fits, pooled_fits, systems, a);
  }
  result.numeric_errors = a.unconverged.size();
  Digest digest;
  digest.text(text);
  result.digest = digest.value();
  return result;
}

constexpr const char* kAnalyzers[] = {
    "root_cause",   "rates",          "node_distribution", "lifetime",
    "periodicity",  "interarrival",   "per_node_fits",     "hazard",
    "repair",       "availability",   "correlation",       "trend",
    "outliers",
};

}  // namespace

Outcome run_batch_pipeline(const Options& options, Tracer& tracer) {
  const double scale = options.tiny ? 3.0 : 39.0;
  const double check_scale = options.tiny ? 1.0 : 3.0;
  Outcome outcome;
  Tracer quiet(false);

  // Set-up: the scenario and the single-threaded reference digest.
  struct Setup {
    synth::ScenarioConfig full;
    synth::ScenarioConfig check;
    std::uint64_t reference_digest = 0;
  } setup;
  const double setup_s = timed_setup(3, setup, [&] {
    Setup s;
    s.full = scaled_scenario(options.seed, scale);
    s.check = scaled_scenario(options.seed, check_scale);
    set_parallelism(1);
    s.reference_digest = run_pass(s.check, quiet, 0, false).digest;
    return s;
  });
  // The same x3 pass at 4 threads: the 1-vs-4 check, and the untimed
  // warm-up pass.
  set_parallelism(kThreads);
  const PassResult check_pass = run_pass(setup.check, quiet, 0, false);
  outcome.check(check_pass.digest == setup.reference_digest,
                "x" + format_double(check_scale, 3) +
                    " pass digest differs between 1 and 4 threads");
  outcome.check(check_pass.roundtrip_identical,
                "CSV round trip is not column-identical (check pass)");

  // Timed passes; every one must render the first one's digest. The
  // traced run alternates untraced and traced passes so the same run
  // yields the tracing overhead.
  std::vector<double> walls;
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  std::vector<PassResult> passes;
  const auto start = Clock::now();
  for (std::uint64_t pass = 1;
       pass <= 2 || seconds_since(start) < options.seconds; ++pass) {
    const bool traced_pass = tracer.enabled() && pass % 2 == 0;
    const bool corrupt = options.corrupt && pass == 2;
    const auto t = Clock::now();
    passes.push_back(
        run_pass(setup.full, traced_pass ? tracer : quiet, pass, corrupt));
    const double wall = seconds_since(t);
    walls.push_back(wall);
    (traced_pass ? traced_walls : untraced_walls).push_back(wall);
    const PassResult& r = passes.back();
    ++outcome.attempted;
    outcome.check(r.roundtrip_identical && r.digest == passes.front().digest,
                  "pass " + std::to_string(pass) +
                      (r.roundtrip_identical
                           ? ": report digest differs from pass 1"
                           : ": CSV round trip is not column-identical"));
  }
  const PassResult& first = passes.front();
  std::cerr << "batch_pipeline: " << first.records << " records ("
            << first.tied_rows << " in tied keys, " << first.numeric_errors
            << " unconverged analyzer calls), " << walls.size()
            << " passes, median " << median(walls) << " s (";
  for (const double w : walls) std::cerr << " " << w;
  std::cerr << " )\n";

  if (!options.trace) {
    outcome.add("setup_s", setup_s, "s");
    outcome.add("throughput_per_s",
                static_cast<double>(first.records) / median(walls), "1/s");
    outcome.add("op_p50_ms", median(walls) * 1e3, "ms");
    outcome.add("peak_rss_mb", peak_rss_mb(), "MB");
    return outcome;
  }

  const auto med = [&](const char* name) {
    return median(tracer.durations(name));
  };
  outcome.add("synth.generate_s", med("synth.generate"), "s");
  outcome.add("synth.generate_cpu_s",
              median(tracer.cpu_durations("synth.generate")), "s");
  outcome.add("trace.write_csv_s", med("trace.write_csv"), "s");
  outcome.add("trace.read_csv_s", med("trace.read_csv"), "s");
  outcome.add("trace.validate_s", med("trace.validate"), "s");
  outcome.add("trace.index_s", med("trace.index"), "s");
  outcome.add("trace.index_cpu_s",
              median(tracer.cpu_durations("trace.index")), "s");
  outcome.add("trace.extract_s", med("trace.extract"), "s");
  outcome.add("dist.fit_s", med("dist.fit"), "s");
  outcome.add("dist.fit_cpu_s", median(tracer.cpu_durations("dist.fit")),
              "s");
  outcome.add("report.render_s", med("report.render"), "s");
  for (const char* name : kAnalyzers) {
    const std::string span = std::string("analysis.") + name;
    outcome.add(span + "_s", median(tracer.durations(span)), "s");
  }
  std::vector<double> index_rss;
  for (std::size_t i = 1; i < passes.size(); i += 2) {
    index_rss.push_back(passes[i].index_rss_mb);
  }
  outcome.add("trace.index_rss_mb",
              *std::max_element(index_rss.begin(), index_rss.end()), "MB");
  outcome.add("trace.dataset_mb", first.dataset_mb, "MB");
  outcome.add("analysis.numeric_errors",
              static_cast<double>(first.numeric_errors), "count");
  outcome.add("dist.fit_points", static_cast<double>(first.fit_points),
              "count");
  outcome.add("dist.fit_failed_frac",
              first.fit_families > 0
                  ? static_cast<double>(first.fit_failed) /
                        static_cast<double>(first.fit_families)
                  : 0.0,
              "ratio");
  outcome.add("bench.batch_trace_overhead_pct",
              (median(traced_walls) / median(untraced_walls) - 1.0) * 100.0,
              "%");
  measure_live_layers(options, tracer, outcome);
  return outcome;
}

}  // namespace perfbench
