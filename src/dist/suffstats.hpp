// Shared sufficient statistics for the standard positive-support MLE
// families (exponential, weibull, gamma, lognormal).
//
// Every standard-family fit reads its sample through one SuffStats: the
// count, the raw sum, the floored extrema, and the mean and centred
// second moment of x and of log x. The batch fitters (dist/fit.hpp), the
// per-family fit_mle overloads and the streaming daemon's windowed fits
// all derive their parameters from these fields, so the three paths run
// the same arithmetic.
//
// The moments are kept in a shifted, mergeable form. Each of x and log x
// carries a shift K (the first floored observation, resp. its log), the
// running mean of the deviations from K, and their centred sum of squares
// M2, updated by Welford's recurrence on add() and by Chan's pairwise
// formula on merge(). Deviations from K stay small on near-constant
// samples (10^8 s gaps with unit spread) and squares of deviations do not
// overflow where squares of the values would (10^152-scale data), so the
// variance keeps its precision where the one-pass Σx² − n·mean² form
// cancels to zero or overflows.
//
// Contracts:
//   * compute() is a loop over add(), so an add() sequence and one
//     compute() pass over the same values are bit-identical; the floored
//     logs compute() hands out are the ones add() accumulated.
//   * merge() combines accumulators exactly in exact arithmetic; in
//     floating point a merged result matches a single pass to rounding
//     (relative ~1e-13 on 10^7-point hostile samples, see the testkit
//     reference oracle), not bit for bit, and depends on merge order.
#pragma once

#include <cstddef>
#include <limits>
#include <span>

namespace hpcfail::dist {

struct SuffStats {
  std::size_t n = 0;          ///< sample size
  double floor_at = 1e-9;     ///< resolution floor applied below (not sum_raw)
  double sum_raw = 0.0;       ///< Σ x over the raw (unfloored) sample
  double shift = 0.0;         ///< K: the first floored observation
  double mean_dev = 0.0;      ///< mean of max(x, floor_at) − K
  double m2 = 0.0;            ///< Σ (max(x, floor_at) − mean)²
  double log_shift = 0.0;     ///< K_log: log K
  double log_mean_dev = 0.0;  ///< mean of log(max(x, floor_at)) − K_log
  double log_m2 = 0.0;        ///< Σ (log(max(x, floor_at)) − mean log)²
  double min = 0.0;           ///< floored minimum (0 when n == 0)
  double max = 0.0;           ///< floored maximum (0 when n == 0)

  /// Mean of the floored sample (NaN when empty).
  double mean() const noexcept {
    return n == 0 ? std::numeric_limits<double>::quiet_NaN()
                  : shift + mean_dev;
  }

  /// Biased (1/n) variance of the floored sample (NaN when empty).
  double variance() const noexcept {
    return m2 / static_cast<double>(n);
  }

  /// Squared coefficient of variation, the paper's C² statistic (NaN when
  /// empty or zero-mean).
  double cv_squared() const noexcept {
    const double m = mean();
    return variance() / (m * m);
  }

  /// A loop of add() over the sample. Requires floor_at > 0 and
  /// non-negative data (InvalidArgument otherwise) — the same domain as
  /// the positive-support fit_mle overloads. A non-empty `logs`, one slot
  /// per value, receives each value's floored log: the one add() takes,
  /// so a fitter that keeps the logs (the Weibull solver's input) takes
  /// each log once.
  static SuffStats compute(std::span<const double> xs,
                           double floor_at = 1e-9,
                           std::span<double> logs = {});

  /// Single-observation Welford update of both moment pairs; the first
  /// observation sets the shifts. Same domain checks as compute().
  void add(double x) { (void)add_with_log(x); }

  /// add(x), returning the log it took: log(max(x, floor_at)).
  double add_with_log(double x);

  /// Pools another accumulator computed with the same floor (throws
  /// InvalidArgument on a floor mismatch) by Chan's pairwise update,
  /// keeping this accumulator's shifts.
  void merge(const SuffStats& other);
};

}  // namespace hpcfail::dist
