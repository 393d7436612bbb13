// Section 6 / Table 2 and Figure 7: repair-time statistics by root cause,
// distribution fits over all repair times, and per-system mean/median.
#pragma once

#include <optional>
#include <vector>

#include "dist/fit.hpp"
#include "stats/descriptive.hpp"
#include "trace/catalog.hpp"
#include "trace/dataset.hpp"
#include "trace/types.hpp"

namespace hpcfail::analysis {

/// One column of Table 2 (minutes).
struct RepairByCause {
  trace::RootCause cause = trace::RootCause::unknown;
  hpcfail::stats::Summary stats;  ///< mean/median/stddev/C^2, minutes
};

/// One bar of Fig 7(b)/(c).
struct RepairBySystem {
  int system_id = 0;
  char hw_type = '?';
  double mean_minutes = 0.0;
  double median_minutes = 0.0;
  std::size_t failures = 0;
  /// Standard-family fits of this system's repair times, best first
  /// (one pool task per system); empty when no family converged.
  hpcfail::dist::FitReport fits;
};

struct RepairReport {
  /// Table 2: one entry per root cause present in the data, plus the
  /// aggregate.
  std::vector<RepairByCause> by_cause;
  hpcfail::stats::Summary all;

  /// Fig 7(a): fits of the four standard families over all repair times,
  /// best first (the paper finds lognormal best, exponential worst).
  hpcfail::dist::FitReport fits;

  /// Fig 7(b)/(c), ascending system id.
  std::vector<RepairBySystem> by_system;
};

/// Computes Table 2 + Fig 7 from a dataset. Throws InvalidArgument on an
/// empty dataset.
RepairReport repair_analysis(const trace::FailureDataset& dataset,
                             const trace::SystemCatalog& catalog);

}  // namespace hpcfail::analysis
