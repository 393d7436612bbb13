#include "dist/suffstats.hpp"

#include <cmath>

#include "common/error.hpp"

namespace hpcfail::dist {

namespace {

// Welford step for one shifted moment pair: `d` is the new observation's
// deviation from the shift, `n` the count including it.
void welford_add(double d, double n, double& mean_dev, double& m2) {
  const double delta = d - mean_dev;
  mean_dev += delta / n;
  m2 += delta * (d - mean_dev);
}

// Chan's pairwise update of (mean_dev, m2) about `shift` with another
// pair about `other_shift`. The shift difference is taken first: nearby
// shifts subtract exactly, so deviations keep their precision.
void chan_merge(double na, double nb, double shift, double& mean_dev,
                double& m2, double other_shift, double other_mean_dev,
                double other_m2) {
  const double total = na + nb;
  const double delta = (other_shift - shift) + other_mean_dev - mean_dev;
  mean_dev += delta * (nb / total);
  m2 += other_m2 + delta * delta * (na * nb / total);
}

}  // namespace

SuffStats SuffStats::compute(std::span<const double> xs, double floor_at,
                             std::span<double> logs) {
  HPCFAIL_EXPECTS(floor_at > 0.0,
                  "sufficient statistics require a positive floor");
  HPCFAIL_EXPECTS(logs.empty() || logs.size() == xs.size(),
                  "sufficient statistics: one log slot per value");
  SuffStats s;
  s.floor_at = floor_at;
  if (logs.empty()) {
    for (const double x : xs) s.add(x);
  } else {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      logs[i] = s.add_with_log(xs[i]);
    }
  }
  return s;
}

double SuffStats::add_with_log(double x) {
  HPCFAIL_EXPECTS(floor_at > 0.0,
                  "sufficient statistics require a positive floor");
  HPCFAIL_EXPECTS(x >= 0.0,
                  "sufficient statistics require non-negative data");
  const double v = x < floor_at ? floor_at : x;
  const double lv = std::log(v);
  if (n == 0) {
    shift = min = max = v;
    log_shift = lv;
  }
  ++n;
  const auto count = static_cast<double>(n);
  sum_raw += x;
  welford_add(v - shift, count, mean_dev, m2);
  welford_add(lv - log_shift, count, log_mean_dev, log_m2);
  if (v < min) min = v;
  if (v > max) max = v;
  return lv;
}

void SuffStats::merge(const SuffStats& other) {
  if (other.n == 0) return;  // empty carries no floored data: any floor
  HPCFAIL_EXPECTS(n == 0 || floor_at == other.floor_at,
                  "cannot merge sufficient statistics with different floors");
  if (n == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n);
  const auto nb = static_cast<double>(other.n);
  n += other.n;
  sum_raw += other.sum_raw;
  chan_merge(na, nb, shift, mean_dev, m2, other.shift, other.mean_dev,
             other.m2);
  chan_merge(na, nb, log_shift, log_mean_dev, log_m2, other.log_shift,
             other.log_mean_dev, other.log_m2);
  if (other.min < min) min = other.min;
  if (other.max > max) max = other.max;
}

}  // namespace hpcfail::dist
