// Brute-force reference implementations of the dataset extractions
// (differential oracles for trace/index.hpp) and of sample moments
// (the oracle for dist::SuffStats).
//
// Each extraction is the textbook O(n) filter-and-scan over the raw
// records table, written with none of the index machinery — no
// partitions, posting lists, or binary searches — so an index bug cannot
// hide in its own reference. The index/view tests and the testkit
// calibration suite assert the optimized extractors match these
// bit-identically.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "common/time.hpp"
#include "sim/campaign.hpp"
#include "trace/columns.hpp"
#include "trace/record.hpp"

namespace hpcfail::testkit {

/// Records of one system, in input (start-sorted) order.
std::vector<trace::FailureRecord> ref_for_system(
    trace::ColumnsView records, int system_id);

/// Records with start in [from, to), in input order.
std::vector<trace::FailureRecord> ref_between(
    trace::ColumnsView records, Seconds from, Seconds to);

/// Gaps between consecutive failures of one (system, node), in seconds.
std::vector<double> ref_node_interarrivals(
    trace::ColumnsView records, int system_id,
    int node_id);

/// Gaps between consecutive failures anywhere in one system, in seconds.
std::vector<double> ref_system_interarrivals(
    trace::ColumnsView records, int system_id);

/// Failure count per node of one system (zero-failure nodes absent).
std::map<int, std::size_t> ref_failures_per_node(
    trace::ColumnsView records, int system_id);

/// Moments of a floored sample by the textbook two-pass method in long
/// double: the mean first, then the mean squared deviation from it, for x
/// and for log x. The inputs are the doubles dist::SuffStats sees — the
/// values floored at `floor_at` and their double-precision logs — so a
/// comparison measures the accumulator's arithmetic alone. Variances are
/// the biased (1/n) form the MLEs use. Requires a non-empty sample.
struct RefMoments {
  std::size_t n = 0;
  long double mean = 0.0L;
  long double variance = 0.0L;
  long double mean_log = 0.0L;
  long double log_variance = 0.0L;
};

RefMoments ref_moments(std::span<const double> xs, double floor_at);

/// Naive aggregate of one campaign cell's runs: plain accumulation-loop
/// means in replicate order. The campaign summary's bootstrap point
/// estimates must match these bit-identically (the bootstrap evaluates
/// its statistic on the original sample), so a summary bug cannot hide
/// in a shared implementation.
struct CampaignAggregate {
  std::size_t runs = 0;
  std::uint64_t faults_injected = 0;
  double mean_makespan = 0.0;
  double mean_waste_fraction = 0.0;
  double mean_interruptions = 0.0;

  friend bool operator==(const CampaignAggregate&,
                         const CampaignAggregate&) = default;
};

/// Aggregates `runs` (one cell, replicate order) with textbook loops.
CampaignAggregate ref_campaign_aggregate(
    std::span<const sim::CampaignRunResult> runs);

}  // namespace hpcfail::testkit
