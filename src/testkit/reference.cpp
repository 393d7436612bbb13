#include "testkit/reference.hpp"

#include <cmath>

#include "common/error.hpp"

namespace hpcfail::testkit {

std::vector<trace::FailureRecord> ref_for_system(
    trace::ColumnsView records, int system_id) {
  std::vector<trace::FailureRecord> out;
  for (const trace::FailureRecord& r : records) {
    if (r.system_id == system_id) out.push_back(r);
  }
  return out;
}

std::vector<trace::FailureRecord> ref_between(
    trace::ColumnsView records, Seconds from, Seconds to) {
  std::vector<trace::FailureRecord> out;
  for (const trace::FailureRecord& r : records) {
    if (r.start >= from && r.start < to) out.push_back(r);
  }
  return out;
}

std::vector<double> ref_node_interarrivals(
    trace::ColumnsView records, int system_id,
    int node_id) {
  std::vector<Seconds> starts;
  for (const trace::FailureRecord& r : records) {
    if (r.system_id == system_id && r.node_id == node_id) {
      starts.push_back(r.start);
    }
  }
  std::vector<double> gaps;
  for (std::size_t i = 1; i < starts.size(); ++i) {
    gaps.push_back(static_cast<double>(starts[i] - starts[i - 1]));
  }
  return gaps;
}

std::vector<double> ref_system_interarrivals(
    trace::ColumnsView records, int system_id) {
  std::vector<Seconds> starts;
  for (const trace::FailureRecord& r : records) {
    if (r.system_id == system_id) starts.push_back(r.start);
  }
  std::vector<double> gaps;
  for (std::size_t i = 1; i < starts.size(); ++i) {
    gaps.push_back(static_cast<double>(starts[i] - starts[i - 1]));
  }
  return gaps;
}

std::map<int, std::size_t> ref_failures_per_node(
    trace::ColumnsView records, int system_id) {
  std::map<int, std::size_t> counts;
  for (const trace::FailureRecord& r : records) {
    if (r.system_id == system_id) ++counts[r.node_id];
  }
  return counts;
}

RefMoments ref_moments(std::span<const double> xs, double floor_at) {
  HPCFAIL_EXPECTS(!xs.empty(), "reference moments of an empty sample");
  const auto floored = [floor_at](double x) {
    return x < floor_at ? floor_at : x;
  };
  RefMoments ref;
  ref.n = xs.size();
  const auto n = static_cast<long double>(xs.size());
  long double sum = 0.0L;
  long double sum_log = 0.0L;
  for (const double x : xs) {
    const double v = floored(x);
    sum += v;
    sum_log += std::log(v);
  }
  ref.mean = sum / n;
  ref.mean_log = sum_log / n;
  long double ss = 0.0L;
  long double ss_log = 0.0L;
  for (const double x : xs) {
    const double v = floored(x);
    const long double d = v - ref.mean;
    const long double d_log = std::log(v) - ref.mean_log;
    ss += d * d;
    ss_log += d_log * d_log;
  }
  ref.variance = ss / n;
  ref.log_variance = ss_log / n;
  return ref;
}

CampaignAggregate ref_campaign_aggregate(
    std::span<const sim::CampaignRunResult> runs) {
  CampaignAggregate agg;
  agg.runs = runs.size();
  if (runs.empty()) return agg;
  double makespan = 0.0;
  double waste = 0.0;
  double interruptions = 0.0;
  for (const sim::CampaignRunResult& r : runs) {
    agg.faults_injected += r.faults_injected;
    makespan += r.makespan;
    waste += r.waste_fraction();
    interruptions += static_cast<double>(r.interruptions);
  }
  const auto n = static_cast<double>(runs.size());
  agg.mean_makespan = makespan / n;
  agg.mean_waste_fraction = waste / n;
  agg.mean_interruptions = interruptions / n;
  return agg;
}

}  // namespace hpcfail::testkit
