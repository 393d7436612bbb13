// Full-precision pin of the repair, hazard and interarrival analyzers, of
// trace::validate, and of the root-cause, availability, lifetime and
// correlation analyzers on a seeded x3 LANL trace.
//
// The CLI goldens print four significant digits, which cannot see a
// last-bit change. This snapshot prints every double with %.17g (which
// round-trips exactly), so any change to the analyzers' arithmetic or
// accumulation order shows up as a diff. Each system's Nelson-Aalen curve
// is pinned by its length, its first steps, its last step and an FNV-1a
// digest of every step's bits; the validation issues by their count per
// kind, the first three of each kind and a digest of all of them; each
// lifetime curve by its month totals and a digest of every month's
// per-cause counts. That keeps the files small without losing a bit.
// Regenerate with HPCFAIL_UPDATE_GOLDENS=1 only for an intended change.
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/availability.hpp"
#include "analysis/correlation.hpp"
#include "analysis/hazard.hpp"
#include "analysis/interarrival.hpp"
#include "analysis/lifetime.hpp"
#include "analysis/repair.hpp"
#include "analysis/root_cause.hpp"
#include "common/error.hpp"
#include "dist/exponential.hpp"
#include "dist/gamma.hpp"
#include "dist/lognormal.hpp"
#include "dist/weibull.hpp"
#include "synth/corruption.hpp"
#include "synth/generator.hpp"
#include "synth/scenario.hpp"
#include "testkit/golden.hpp"
#include "trace/catalog.hpp"
#include "trace/validate.hpp"

namespace hpcfail::analysis {
namespace {

std::string exact(double x) {
  if (std::isnan(x)) return "nan";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

void line(std::string& out, const std::string& text) {
  out += text;
  out += '\n';
}

void print_summary(std::string& out, const std::string& label,
                   const stats::Summary& s) {
  line(out, label + " n=" + std::to_string(s.n) + " mean=" + exact(s.mean) +
                " median=" + exact(s.median) + " variance=" +
                exact(s.variance) + " stddev=" + exact(s.stddev) +
                " cv2=" + exact(s.cv2) + " min=" + exact(s.min) +
                " max=" + exact(s.max) + " q25=" + exact(s.q25) +
                " q75=" + exact(s.q75) + " skewness=" + exact(s.skewness));
}

std::string parameters(const dist::Distribution& model) {
  if (const auto* m = dynamic_cast<const dist::Exponential*>(&model)) {
    return "rate=" + exact(m->rate());
  }
  if (const auto* m = dynamic_cast<const dist::Weibull*>(&model)) {
    return "shape=" + exact(m->shape()) + " scale=" + exact(m->scale());
  }
  if (const auto* m = dynamic_cast<const dist::GammaDist*>(&model)) {
    return "shape=" + exact(m->shape()) + " scale=" + exact(m->scale());
  }
  if (const auto* m = dynamic_cast<const dist::LogNormal*>(&model)) {
    return "mu=" + exact(m->mu()) + " sigma=" + exact(m->sigma());
  }
  return model.describe();
}

void print_fits(std::string& out, const std::string& label,
                const dist::FitReport& report) {
  line(out, label + " sample_size=" + std::to_string(report.sample_size) +
                " floor_at=" + exact(report.floor_at) + " failed=" +
                std::to_string(report.failed_families) + " iterations=" +
                std::to_string(report.total_iterations));
  for (const dist::FitResult& f : report) {
    line(out, "  " + dist::to_string(f.family) + " " +
                  parameters(*f.model) + " nll=" + exact(f.nll) +
                  " aic=" + exact(f.aic) + " ks=" + exact(f.ks) +
                  " ks_pvalue=" + exact(f.ks_pvalue) +
                  " iterations=" + std::to_string(f.iterations));
  }
}

// FNV-1a, fed bytes one at a time.
class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void number(double x) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    bytes(&bits, sizeof bits);
  }
  std::string hex() const {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

std::string joined(const std::array<double, 6>& values) {
  std::string text;
  for (const double v : values) {
    if (!text.empty()) text += ',';
    text += exact(v);
  }
  return text;
}

void print_breakdown(std::string& out, const CauseBreakdown& b) {
  std::string text = "root_cause " + b.label;
  text += " failures=" + std::to_string(b.failures);
  text += " downtime=" + exact(b.downtime_minutes);
  text += " count_percent=" + joined(b.count_percent);
  text += " downtime_percent=" + joined(b.downtime_percent);
  line(out, text);
}

std::string step(const stats::SurvivalPoint& p) {
  return "(" + exact(p.time) + ", " + exact(p.value) + ")";
}

trace::FailureDataset x3_trace() {
  synth::ScenarioConfig cfg = synth::lanl_scenario(1);
  for (synth::SystemScenario& s : cfg.systems) s.failures_per_year *= 3.0;
  return synth::TraceGenerator(trace::SystemCatalog::lanl(), cfg).generate();
}

// The x3 trace after synth::corrupt, plus one record for each issue kind
// the corruptor cannot produce (an unknown system, a start outside the
// node's production window, a graphics node labelled compute).
trace::FailureDataset dirty_trace(const trace::FailureDataset& clean) {
  synth::CorruptionConfig cfg;
  cfg.seed = 3;
  cfg.corrupt_node_probability = 0.001;
  cfg.stretch_repair_probability = 0.001;
  const trace::FailureDataset dirty = synth::corrupt(clean, cfg);
  std::vector<trace::FailureRecord> records;
  records.reserve(dirty.size() + 3);
  for (const trace::FailureRecord& r : dirty.records()) records.push_back(r);
  const auto extra = [&records](int system, int node, Seconds start,
                                trace::Workload workload) {
    trace::FailureRecord r;
    r.system_id = system;
    r.node_id = node;
    r.start = start;
    r.end = start + 600;
    r.workload = workload;
    r.cause = trace::RootCause::hardware;
    r.detail = trace::DetailCause::memory_dimm;
    records.push_back(r);
  };
  extra(99, 0, to_epoch(2003, 1, 1), trace::Workload::compute);
  extra(19, 3, to_epoch(2004, 1, 1), trace::Workload::compute);
  extra(20, 22, to_epoch(2004, 1, 1), trace::Workload::compute);
  return trace::FailureDataset(std::move(records));
}

TEST(AnalyzerPrecisionGolden, RepairHazardInterarrivalAndValidateArePinned) {
  const trace::SystemCatalog& catalog = trace::SystemCatalog::lanl();
  const trace::FailureDataset ds = x3_trace();
  std::string out;
  line(out, "records " + std::to_string(ds.size()));

  const RepairReport repair = repair_analysis(ds, catalog);
  for (const RepairByCause& c : repair.by_cause) {
    print_summary(out, "repair cause " + trace::to_string(c.cause), c.stats);
  }
  print_summary(out, "repair all", repair.all);
  print_fits(out, "repair fits", repair.fits);
  for (const RepairBySystem& s : repair.by_system) {
    const std::string label = "repair system " + std::to_string(s.system_id);
    line(out, label + " hw=" + std::string(1, s.hw_type) + " failures=" +
                  std::to_string(s.failures) + " mean=" +
                  exact(s.mean_minutes) + " median=" +
                  exact(s.median_minutes));
    print_fits(out, label + " fits", s.fits);
  }

  for (const int id : ds.system_ids()) {
    const std::string label = "hazard system " + std::to_string(id);
    try {
      const HazardReport h = node_hazard_analysis(ds, id);
      std::string text = label + " events=" + std::to_string(h.events) +
                         " censored=" + std::to_string(h.censored) +
                         " slope=" + exact(h.log_log_slope) + " steps=" +
                         std::to_string(h.cumulative_hazard.size());
      if (!h.cumulative_hazard.empty()) {
        const auto& curve = h.cumulative_hazard;
        text += " first=" + step(curve.front());
        if (curve.size() > 1) text += " second=" + step(curve[1]);
        text += " last=" + step(curve.back());
      }
      Digest digest;
      for (const stats::SurvivalPoint& p : h.cumulative_hazard) {
        digest.number(p.time);
        digest.number(p.value);
      }
      line(out, text + " digest=" + digest.hex());
    } catch (const Error& e) {
      line(out, label + " error: " + e.what());
    }
  }

  for (const int id : ds.system_ids()) {
    const std::string label = "interarrival system " + std::to_string(id);
    InterarrivalQuery query;
    query.system_id = id;
    try {
      const InterarrivalReport r = interarrival_analysis(ds, query);
      print_summary(out, label, r.summary);
      line(out, label + " zero_fraction=" + exact(r.zero_fraction));
      print_fits(out, label + " fits", r.fits);
    } catch (const Error& e) {
      line(out, label + " error: " + e.what());
    }
  }

  const trace::FailureDataset dirty = dirty_trace(ds);
  const trace::ValidationReport validation = trace::validate(dirty, catalog);
  line(out, "validate checked=" + std::to_string(validation.records_checked) +
                " issues=" + std::to_string(validation.issues.size()));
  // Every issue goes into the digest; the first three of each kind are
  // printed in full.
  Digest digest;
  std::map<std::string, std::size_t> per_kind;
  std::string shown;
  for (const trace::ValidationIssue& issue : validation.issues) {
    const std::string kind = trace::to_string(issue.kind);
    const std::string text = kind + " " + std::to_string(issue.record_index) +
                             " " +
                             trace::issue_message(issue, dirty, catalog) +
                             "\n";
    digest.bytes(text.data(), text.size());
    if (++per_kind[kind] <= 3) shown += "  " + text;
  }
  for (const auto& [kind, count] : per_kind) {
    line(out, "validate " + kind + " " + std::to_string(count));
  }
  out += shown;
  line(out, "validate digest=" + digest.hex());

  const auto result = testkit::golden_compare(
      std::string(HPCFAIL_GOLDEN_DIR) + "/analyzers_full_precision.golden",
      out);
  EXPECT_TRUE(static_cast<bool>(result)) << result.message;
}

TEST(AnalyzerPrecisionGolden, RootCauseAvailabilityLifetimeCorrelationPinned) {
  const trace::SystemCatalog& catalog = trace::SystemCatalog::lanl();
  const trace::FailureDataset ds = x3_trace();
  std::string out;
  line(out, "records " + std::to_string(ds.size()));

  const RootCauseReport causes = root_cause_breakdown(ds, catalog);
  print_breakdown(out, causes.all);
  for (const CauseBreakdown& b : causes.by_type) print_breakdown(out, b);

  for (const SystemAvailability& a : availability_analysis(ds, catalog)) {
    std::string text = "availability system " + std::to_string(a.system_id);
    text += " hw=" + std::string(1, a.hw_type);
    text += " node_hours=" + exact(a.node_hours);
    text += " downtime_hours=" + exact(a.downtime_hours);
    text += " failures=" + std::to_string(a.failures);
    text += " availability=" + exact(a.availability);
    text += " node_mtbf_hours=" + exact(a.node_mtbf_hours);
    line(out, text);
  }

  for (const int id : ds.system_ids()) {
    const std::string label = "lifetime system " + std::to_string(id);
    try {
      const LifetimeCurve curve = lifetime_curve(ds, catalog, id);
      std::string totals;
      Digest digest;
      for (const MonthlyFailures& m : curve.months) {
        if (!totals.empty()) totals += ',';
        totals += exact(m.total());
        digest.number(static_cast<double>(m.month));
        for (const double c : m.by_cause) digest.number(c);
      }
      std::string text = label;
      text += " months=" + std::to_string(curve.months.size());
      text += " peak=" + std::to_string(curve.peak_month);
      text += " early_to_late=" + exact(curve.early_to_late_ratio);
      text += " digest=" + digest.hex();
      line(out, text);
      line(out, "  totals=" + totals);
    } catch (const Error& e) {
      line(out, label + " error: " + e.what());
    }
  }

  for (const int id : ds.system_ids()) {
    const std::string label = "correlation system " + std::to_string(id);
    try {
      const CorrelationReport r = correlation_analysis(ds, id);
      std::string acf;
      for (const double v : r.interarrival_autocorrelation) {
        if (!acf.empty()) acf += ',';
        acf += exact(v);
      }
      std::string text = label;
      text += " failures=" + std::to_string(r.bursts.total_failures);
      text += " events=" + std::to_string(r.bursts.burst_events);
      text += " burst_failures=" + std::to_string(r.bursts.burst_failures);
      text += " largest=" + std::to_string(r.bursts.largest_burst);
      text += " dispersion=" + exact(r.daily_dispersion);
      text += " acf=" + acf;
      line(out, text);
    } catch (const Error& e) {
      line(out, label + " error: " + e.what());
    }
  }

  std::string path = HPCFAIL_GOLDEN_DIR;
  path += "/counting_analyzers_full_precision.golden";
  const auto result = testkit::golden_compare(path, out);
  EXPECT_TRUE(static_cast<bool>(result)) << result.message;
}

}  // namespace
}  // namespace hpcfail::analysis
