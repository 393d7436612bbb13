#include "analysis/repair.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <span>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/timer.hpp"
#include "trace/index.hpp"

namespace hpcfail::analysis {

RepairReport repair_analysis(const trace::FailureDataset& dataset,
                             const trace::SystemCatalog& catalog) {
  hpcfail::obs::ScopedTimer timer("analysis.repair");
  HPCFAIL_EXPECTS(!dataset.empty(), "repair analysis of empty dataset");
  RepairReport report;
  const std::span<const hpcfail::dist::Family> families =
      hpcfail::dist::standard_families();
  constexpr double kFloor = 1e-9;  // fit_report's default resolution floor

  // A counting pass over the cause column places each cause's run in
  // `all_sorted`, in kAllRootCauses order; one pass over the cause and
  // start/end columns then fills the all-records sample and every run,
  // each in record order. The unit conversion stays a division so the
  // samples match the per-record helper bit for bit.
  const trace::ColumnsView records = dataset.records();
  const std::span<const trace::RootCause> causes = records.causes();
  const std::span<const hpcfail::Seconds> starts = records.starts();
  const std::span<const hpcfail::Seconds> ends = records.ends();
  std::array<std::size_t, trace::kAllRootCauses.size() + 1> run_begin{};
  for (const trace::RootCause cause : causes) {
    ++run_begin[trace::cause_index(cause) + 1];
  }
  std::partial_sum(run_begin.begin(), run_begin.end(), run_begin.begin());
  std::array<std::size_t, trace::kAllRootCauses.size()> cursor{};
  std::copy_n(run_begin.begin(), cursor.size(), cursor.begin());
  std::vector<double> all_minutes(causes.size());
  std::vector<double> all_sorted(causes.size());
  for (std::size_t i = 0; i < causes.size(); ++i) {
    const double minutes = static_cast<double>(ends[i] - starts[i]) / 60.0;
    all_minutes[i] = minutes;
    all_sorted[cursor[trace::cause_index(causes[i])]++] = minutes;
  }

  // Table 2: per root cause. Each run is copied out in record order for
  // the moments, sorted in place and merged into the sorted runs before
  // it, which leaves the sorted copy of all repair times without sorting
  // them again. Repair times are never NaN or -0.0, so equal values are
  // identical and the merged runs equal a sort of the whole sample.
  std::vector<double> cause_minutes;
  for (std::size_t k = 0; k < trace::kAllRootCauses.size(); ++k) {
    const auto begin = all_sorted.begin() +
                       static_cast<std::ptrdiff_t>(run_begin[k]);
    const auto end = all_sorted.begin() +
                     static_cast<std::ptrdiff_t>(run_begin[k + 1]);
    if (begin == end) continue;
    cause_minutes.assign(begin, end);
    hpcfail::stats::sort_in_place(std::span<double>(begin, end));
    RepairByCause entry;
    entry.cause = trace::kAllRootCauses[k];
    entry.stats = hpcfail::stats::summarize(
        cause_minutes, std::span<const double>(begin, end));
    report.by_cause.push_back(entry);
    std::inplace_merge(all_sorted.begin(), begin, end);
  }
  std::vector<double>().swap(cause_minutes);

  // Table 2's aggregate and Fig 7(a)'s fits share the merged copy.
  report.all = hpcfail::stats::summarize(all_minutes, all_sorted);
  report.fits =
      hpcfail::dist::fit_report(all_minutes, all_sorted, families, kFloor);
  std::vector<double>().swap(all_sorted);
  std::vector<double>().swap(all_minutes);

  // Fig 7(b)/(c): one task per system extracts its sample, sorts it once
  // and summarizes and fits it, so only the samples in flight are held.
  // A system on which every family fails gets an empty report.
  const trace::DatasetView view = dataset.view();
  const std::vector<int> ids = dataset.system_ids();
  report.by_system = hpcfail::parallel_map(ids.size(), [&](std::size_t i) {
    const std::vector<double> minutes =
        view.for_system(ids[i]).repair_times_minutes();
    const std::vector<double> sorted = hpcfail::stats::sorted_copy(minutes);
    const hpcfail::stats::Summary s =
        hpcfail::stats::summarize(minutes, sorted);
    RepairBySystem entry;
    entry.system_id = ids[i];
    entry.failures = minutes.size();
    entry.mean_minutes = s.mean;
    entry.median_minutes = s.median;
    try {
      entry.fits =
          hpcfail::dist::fit_report(minutes, sorted, families, kFloor);
    } catch (const Error&) {
      entry.fits.sample_size = minutes.size();
      entry.fits.floor_at = kFloor;
      entry.fits.failed_families = families.size();
    }
    return entry;
  });
  for (RepairBySystem& entry : report.by_system) {
    entry.hw_type = catalog.system(entry.system_id).hw_type;
  }
  return report;
}

}  // namespace hpcfail::analysis
