// Nonparametric bootstrap: resample-with-replacement confidence intervals
// for any statistic of a sample.
//
// The paper reports point estimates (means, medians, C^2, fitted shapes)
// without uncertainty. A reproduction working from finite synthetic traces
// needs error bars to say whether "0.71 vs the paper's 0.7" is agreement;
// this module supplies percentile bootstrap intervals for exactly that.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace hpcfail::stats {

/// A statistic of a sample (e.g. the mean, or a fitted Weibull shape).
using Statistic = std::function<double(std::span<const double>)>;

struct BootstrapResult {
  double point = 0.0;   ///< statistic of the original sample
  double lo = 0.0;      ///< lower percentile bound
  double hi = 0.0;      ///< upper percentile bound
  double std_error = 0.0;  ///< standard deviation across replicates
  std::size_t replicates = 0;  ///< replicates that evaluated successfully
};

struct BootstrapOptions {
  std::size_t replicates = 1000;
  double confidence = 0.95;  ///< central interval mass, in (0, 1)
};

/// Percentile-bootstrap interval for `statistic` on `sample`. Replicates
/// on which the statistic throws (e.g. a degenerate resample for an MLE)
/// are skipped; at least 10% of replicates must succeed or NumericError
/// is thrown. Deterministic given `rng`'s state. Throws InvalidArgument
/// on an empty sample or bad options.
BootstrapResult bootstrap(std::span<const double> sample,
                          const Statistic& statistic, hpcfail::Rng& rng,
                          BootstrapOptions options = {});

/// bootstrap() of the plain mean (a left-to-right sum divided by the
/// count) without a resample buffer: it makes the same draws in the same
/// order and adds them in the order the buffer would be summed, so its
/// result equals bootstrap(sample, plain mean, rng, options) bit for bit
/// and `rng` ends in the same state. Throws as bootstrap() does.
BootstrapResult bootstrap_mean(std::span<const double> sample,
                               hpcfail::Rng& rng,
                               BootstrapOptions options = {});

}  // namespace hpcfail::stats
