#include "analysis/interarrival.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/time.hpp"
#include "obs/span.hpp"
#include "trace/index.hpp"

namespace hpcfail::analysis {

InterarrivalReport interarrival_analysis(const trace::FailureDataset& dataset,
                                         const InterarrivalQuery& query,
                                         std::size_t min_gaps) {
  hpcfail::obs::ScopedTimer timer("analysis.interarrival");
  trace::DatasetView scoped = dataset.view().for_system(query.system_id);
  if (query.from || query.to) {
    // Windowing an empty system used to default the open bound to 0 and
    // silently query the inverted range [from, 0); fail loudly instead.
    if (scoped.empty()) {
      throw ValidationError("interarrival query: system " +
                            std::to_string(query.system_id) +
                            " has no records to window");
    }
    const Seconds from = query.from.value_or(scoped.first_start());
    const Seconds to = query.to.value_or(scoped.last_end() + 1);
    if (from >= to) {
      throw ValidationError("interarrival query: empty or inverted window [" +
                            format_timestamp(from) + ", " +
                            format_timestamp(to) + ") for system " +
                            std::to_string(query.system_id));
    }
    scoped = scoped.between(from, to);
  }

  InterarrivalReport report;
  report.query = query;
  report.gaps_seconds = query.node_id
                            ? scoped.node_interarrivals(*query.node_id)
                            : scoped.system_interarrivals();
  HPCFAIL_EXPECTS(report.gaps_seconds.size() >= min_gaps,
                  "too few interarrival times for distribution fitting");

  // The summary and the fits share one sorted copy of the gaps.
  const std::vector<double> sorted =
      hpcfail::stats::sorted_copy(report.gaps_seconds);
  report.summary = hpcfail::stats::summarize(report.gaps_seconds, sorted);
  const auto [zeros_begin, zeros_end] =
      std::equal_range(sorted.begin(), sorted.end(), 0.0);
  report.zero_fraction = static_cast<double>(zeros_end - zeros_begin) /
                         static_cast<double>(sorted.size());

  // Records have 1-second resolution; exact-zero gaps (simultaneous
  // failures) are floored at one second for fitting, as any MLE must.
  report.fits = hpcfail::dist::fit_report(report.gaps_seconds, sorted,
                                          hpcfail::dist::standard_families(),
                                          /*floor_at=*/1.0);
  return report;
}

std::vector<NodeInterarrivalFits> per_node_interarrival_fits(
    const trace::FailureDataset& dataset, int system_id,
    std::size_t min_gaps) {
  hpcfail::obs::ScopedTimer timer("analysis.per_node_interarrival");
  // Single sweep over the per-(system, node) posting lists, replacing the
  // old per-node rescan of the whole system (O(records x nodes)).
  std::vector<trace::NodeInterarrivalGroup> groups =
      dataset.view().for_system(system_id).node_interarrival_groups(min_gaps);

  std::vector<std::vector<double>> samples;
  samples.reserve(groups.size());
  for (trace::NodeInterarrivalGroup& g : groups) {
    samples.push_back(std::move(g.gaps_seconds));
  }

  // Same 1-second floor as interarrival_analysis: records have 1-second
  // resolution and simultaneous failures yield exact zeros.
  auto fit_reports = hpcfail::dist::fit_report_many(
      samples, hpcfail::dist::standard_families(), /*floor_at=*/1.0);

  std::vector<NodeInterarrivalFits> out;
  out.reserve(groups.size());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    NodeInterarrivalFits entry;
    entry.node_id = groups[i].node_id;
    entry.gap_count = samples[i].size();
    entry.fits = std::move(fit_reports[i]);
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace hpcfail::analysis
