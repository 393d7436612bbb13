// Failure-correlation analysis -- the question the paper explicitly left
// open ("While we did not perform a rigorous analysis of correlations
// between nodes, this high number of simultaneous failures indicates the
// existence of a tight correlation...", Section 5.3; Nath et al. study
// its consequences for storage placement).
//
// Three complementary measures:
//  * simultaneous-failure statistics: how often one incident takes down
//    several nodes at once, and how large those bursts are;
//  * the lag-k autocorrelation of the system-wide interarrival sequence
//    (zero for a renewal process, positive under clustering);
//  * daily-count overdispersion: Var/Mean of failures per day (the index
//    of dispersion; 1 under Poisson, larger under temporal clustering).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/dataset.hpp"

namespace hpcfail::analysis {

struct BurstStats {
  std::size_t total_failures = 0;
  std::size_t burst_events = 0;     ///< instants with >= 2 failures
  std::size_t burst_failures = 0;   ///< failures inside those instants
  std::size_t largest_burst = 0;    ///< most failures at one instant
  /// Fraction of all failures that are part of a simultaneous burst.
  double burst_fraction() const noexcept {
    return total_failures > 0
               ? static_cast<double>(burst_failures) /
                     static_cast<double>(total_failures)
               : 0.0;
  }
};

struct CorrelationReport {
  BurstStats bursts;
  /// Autocorrelation of the interarrival sequence at lags 1..max_lag.
  std::vector<double> interarrival_autocorrelation;
  /// Index of dispersion of daily failure counts (Var/Mean).
  double daily_dispersion = 0.0;
};

/// Lag-k sample autocorrelations of a sequence, k = 1..max_lag. Throws
/// InvalidArgument when the sequence is shorter than max_lag + 2 or has
/// zero variance.
std::vector<double> autocorrelation(std::span<const double> sequence,
                                    std::size_t max_lag);

/// The longest span of failure days correlation_analysis counts, first to
/// last (about 45,900 years): one double per day, 128 MiB at the limit.
inline constexpr std::uint64_t kMaxCorrelationSpanDays = 1 << 24;

/// Correlation analysis for one system over an optional time window.
/// Simultaneity is judged at the trace's 1-second resolution. Throws
/// InvalidArgument when the system has fewer than ~32 failures, and
/// ValidationError when its failures span more than
/// kMaxCorrelationSpanDays days.
CorrelationReport correlation_analysis(const trace::FailureDataset& dataset,
                                       int system_id,
                                       std::size_t max_lag = 10);

}  // namespace hpcfail::analysis
