#include "stats/bootstrap.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "stats/descriptive.hpp"

namespace hpcfail::stats {

namespace {

void check_arguments(std::span<const double> sample,
                     const BootstrapOptions& options) {
  HPCFAIL_EXPECTS(!sample.empty(), "bootstrap of empty sample");
  HPCFAIL_EXPECTS(options.replicates >= 10,
                  "bootstrap needs at least 10 replicates");
  HPCFAIL_EXPECTS(options.confidence > 0.0 && options.confidence < 1.0,
                  "confidence must be in (0,1)");
}

/// The interval and standard error over `values`, the replicates that
/// evaluated to a finite number, in replicate order.
BootstrapResult finish(double point, std::vector<double>& values,
                       const BootstrapOptions& options) {
  if (values.size() < options.replicates / 10) {
    throw NumericError("bootstrap: statistic failed on most replicates");
  }
  BootstrapResult result;
  result.point = point;
  std::sort(values.begin(), values.end());
  const double alpha = (1.0 - options.confidence) / 2.0;
  result.lo = quantile_sorted(values, alpha);
  result.hi = quantile_sorted(values, 1.0 - alpha);
  result.replicates = values.size();
  if (values.size() >= 2) {
    result.std_error = std::sqrt(variance(values));
  }
  return result;
}

}  // namespace

BootstrapResult bootstrap(std::span<const double> sample,
                          const Statistic& statistic, hpcfail::Rng& rng,
                          BootstrapOptions options) {
  check_arguments(sample, options);
  const double point = statistic(sample);

  std::vector<double> resample(sample.size());
  std::vector<double> values;
  values.reserve(options.replicates);
  for (std::size_t rep = 0; rep < options.replicates; ++rep) {
    for (double& x : resample) {
      x = sample[rng.uniform_index(sample.size())];
    }
    try {
      const double v = statistic(resample);
      if (std::isfinite(v)) values.push_back(v);
    } catch (const Error&) {
      // Degenerate resample for this statistic; skip it.
    }
  }
  return finish(point, values, options);
}

BootstrapResult bootstrap_mean(std::span<const double> sample,
                               hpcfail::Rng& rng, BootstrapOptions options) {
  check_arguments(sample, options);
  const auto count = static_cast<double>(sample.size());
  double sum = 0.0;
  for (const double x : sample) sum += x;
  const double point = sum / count;

  std::vector<double> values;
  values.reserve(options.replicates);
  for (std::size_t rep = 0; rep < options.replicates; ++rep) {
    // The draws bootstrap() would write into its resample, added in the
    // order it would sum them.
    sum = 0.0;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      sum += sample[rng.uniform_index(sample.size())];
    }
    const double v = sum / count;
    if (std::isfinite(v)) values.push_back(v);
  }
  return finish(point, values, options);
}

}  // namespace hpcfail::stats
