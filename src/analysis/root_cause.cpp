#include "analysis/root_cause.hpp"

#include <span>

#include "common/error.hpp"
#include "obs/timer.hpp"

namespace hpcfail::analysis {

std::size_t breakdown_index(trace::RootCause cause) noexcept {
  return trace::cause_index(cause);
}

namespace {

void finalize(CauseBreakdown& b, const std::array<double, 6>& counts,
              const std::array<double, 6>& downtime) {
  double count_total = 0.0;
  double downtime_total = 0.0;
  for (std::size_t i = 0; i < 6; ++i) {
    count_total += counts[i];
    downtime_total += downtime[i];
  }
  b.failures = static_cast<std::size_t>(count_total);
  b.downtime_minutes = downtime_total;
  for (std::size_t i = 0; i < 6; ++i) {
    b.count_percent[i] =
        count_total > 0.0 ? 100.0 * counts[i] / count_total : 0.0;
    b.downtime_percent[i] =
        downtime_total > 0.0 ? 100.0 * downtime[i] / downtime_total : 0.0;
  }
}

}  // namespace

RootCauseReport root_cause_breakdown(const trace::FailureDataset& dataset,
                                     const trace::SystemCatalog& catalog) {
  hpcfail::obs::ScopedTimer timer("analysis.root_cause");
  HPCFAIL_EXPECTS(!dataset.empty(), "root-cause breakdown of empty dataset");

  // Accumulate per hardware type and overall.
  const std::vector<char> types = catalog.hardware_types();
  std::vector<std::array<double, 6>> counts(types.size(),
                                             std::array<double, 6>{});
  std::vector<std::array<double, 6>> downtime(types.size(),
                                               std::array<double, 6>{});
  std::array<double, 6> all_counts{};
  std::array<double, 6> all_downtime{};

  // Fused column pass: the downtime conversion happens once per record
  // (the old code called downtime_minutes() twice) and only the four
  // touched columns stream through cache.
  const trace::ColumnsView records = dataset.records();
  const std::span<const int> system_ids = records.system_ids();
  const std::span<const trace::RootCause> causes = records.causes();
  const std::span<const hpcfail::Seconds> starts = records.starts();
  const std::span<const hpcfail::Seconds> ends = records.ends();
  for (std::size_t i = 0; i < system_ids.size(); ++i) {
    const char type = catalog.system(system_ids[i]).hw_type;
    const std::size_t ci = breakdown_index(causes[i]);
    const double minutes = static_cast<double>(ends[i] - starts[i]) / 60.0;
    all_counts[ci] += 1.0;
    all_downtime[ci] += minutes;
    for (std::size_t t = 0; t < types.size(); ++t) {
      if (types[t] == type) {
        counts[t][ci] += 1.0;
        downtime[t][ci] += minutes;
        break;
      }
    }
  }

  RootCauseReport report;
  for (std::size_t t = 0; t < types.size(); ++t) {
    double total = 0.0;
    for (const double c : counts[t]) total += c;
    if (total == 0.0) continue;  // type present in catalog but not in data
    CauseBreakdown b;
    b.label = std::string(1, types[t]);
    finalize(b, counts[t], downtime[t]);
    report.by_type.push_back(b);
  }
  report.all.label = "All";
  finalize(report.all, all_counts, all_downtime);
  return report;
}

double detail_cause_fraction(const trace::FailureDataset& dataset,
                             trace::DetailCause detail) {
  HPCFAIL_EXPECTS(!dataset.empty(), "detail fraction of empty dataset");
  std::size_t hits = 0;
  for (const trace::DetailCause d : dataset.records().details()) {
    if (d == detail) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(dataset.size());
}

}  // namespace hpcfail::analysis
