// Calibration oracles for the SuffStats contracts (dist/suffstats.hpp):
//
//   * SuffStatsOracle — the fields equal a direct shifted-Welford pass bit
//     for bit, and the span fit_mle overloads (which forward to the
//     statistics overloads) give the same bits as fitting precomputed
//     statistics;
//   * SuffStatsEngine — fit(), fit_report() and fit_report_from_stats()
//     run the one standard-family engine, so on generated samples they
//     agree bit for bit (window_test holds add() loops to compute()), and
//     fit_report() over a caller's sorted copy equals the sorting form;
//   * SuffStatsHostile — on numerically hostile samples the moments from
//     compute(), from an add() loop and from merges of random splits stay
//     within 1e-10 relative of the long-double two-pass reference
//     (testkit::ref_moments), and so do the lognormal sigma, the gamma
//     shape and the Weibull shape hint derived from them.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/exponential.hpp"
#include "dist/fit.hpp"
#include "dist/gamma.hpp"
#include "dist/lognormal.hpp"
#include "dist/suffstats.hpp"
#include "dist/weibull.hpp"
#include "testkit/generators.hpp"
#include "testkit/reference.hpp"

namespace {

using hpcfail::Error;
using hpcfail::FitError;
using hpcfail::Rng;
using hpcfail::dist::Exponential;
using hpcfail::dist::Family;
using hpcfail::dist::FitReport;
using hpcfail::dist::FitResult;
using hpcfail::dist::GammaDist;
using hpcfail::dist::LogNormal;
using hpcfail::dist::SuffStats;
using hpcfail::dist::Weibull;
using hpcfail::testkit::RefMoments;

// Second-resolution gaps: values below 1 s floor to 1 s.
constexpr double kFloor = 1.0;

std::vector<double> weibull_sample(std::size_t n, double shape,
                                   std::uint64_t seed) {
  const Weibull truth(shape, 86400.0);
  Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) xs.push_back(truth.sample(rng));
  return xs;
}

std::vector<double> floored_logs(std::span<const double> xs, double floor) {
  std::vector<double> logs;
  logs.reserve(xs.size());
  for (const double x : xs) logs.push_back(std::log(std::max(x, floor)));
  return logs;
}

// --- SuffStatsOracle --------------------------------------------------------

TEST(SuffStatsOracle, SumsMatchADirectPassBitForBit) {
  for (const std::size_t n : {64u, 1000u, 10000u}) {
    const auto xs = weibull_sample(n, 0.75, 1234 + n);
    const SuffStats stats = SuffStats::compute(xs, kFloor);

    // Textbook Welford over deviations from the first floored value.
    const double first = std::max(xs[0], kFloor);
    const double log_first = std::log(first);
    double count = 0.0;
    double sum_raw = 0.0;
    double mean_dev = 0.0;
    double m2 = 0.0;
    double log_mean_dev = 0.0;
    double log_m2 = 0.0;
    double mn = first;
    double mx = first;
    for (const double x : xs) {
      const double v = std::max(x, kFloor);
      count += 1.0;
      sum_raw += x;
      const double d = v - first;
      const double delta = d - mean_dev;
      mean_dev += delta / count;
      m2 += delta * (d - mean_dev);
      const double d_log = std::log(v) - log_first;
      const double delta_log = d_log - log_mean_dev;
      log_mean_dev += delta_log / count;
      log_m2 += delta_log * (d_log - log_mean_dev);
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    EXPECT_EQ(stats.n, n);
    EXPECT_EQ(stats.sum_raw, sum_raw) << "n=" << n;
    EXPECT_EQ(stats.shift, first) << "n=" << n;
    EXPECT_EQ(stats.mean_dev, mean_dev) << "n=" << n;
    EXPECT_EQ(stats.m2, m2) << "n=" << n;
    EXPECT_EQ(stats.log_shift, log_first) << "n=" << n;
    EXPECT_EQ(stats.log_mean_dev, log_mean_dev) << "n=" << n;
    EXPECT_EQ(stats.log_m2, log_m2) << "n=" << n;
    EXPECT_EQ(stats.min, mn) << "n=" << n;
    EXPECT_EQ(stats.max, mx) << "n=" << n;

    // The logs compute() hands out are the ones it accumulated, and
    // asking for them changes no field.
    std::vector<double> logs(n);
    const SuffStats with_logs = SuffStats::compute(xs, kFloor, logs);
    EXPECT_EQ(logs, floored_logs(xs, kFloor)) << "n=" << n;
    EXPECT_EQ(with_logs.log_mean_dev, stats.log_mean_dev) << "n=" << n;
    EXPECT_EQ(with_logs.log_m2, stats.log_m2) << "n=" << n;
    EXPECT_EQ(with_logs.m2, stats.m2) << "n=" << n;
  }
}

TEST(SuffStatsOracle, FitsAgreeWithDirectSpanOverloads) {
  // The span overloads forward to the statistics overloads (Weibull's
  // through fit_mle_from_logs with the statistics' log-mean and hint), so
  // a span fit and a fit of the same sample's statistics are the same
  // computation.
  for (const std::size_t n : {64u, 1000u, 10000u}) {
    for (const double shape : {0.75, 1.4}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " shape=" + std::to_string(shape));
      const auto xs = weibull_sample(n, shape, 99 + n);
      const SuffStats stats = SuffStats::compute(xs, kFloor);

      EXPECT_EQ(Exponential::fit_mle(stats).rate(),
                Exponential::fit_mle(xs).rate());

      const GammaDist gamma_span = GammaDist::fit_mle(xs, kFloor);
      const GammaDist gamma_stats = GammaDist::fit_mle(stats);
      EXPECT_EQ(gamma_stats.shape(), gamma_span.shape());
      EXPECT_EQ(gamma_stats.scale(), gamma_span.scale());

      const LogNormal ln_span = LogNormal::fit_mle(xs, kFloor);
      const LogNormal ln_stats = LogNormal::fit_mle(stats);
      EXPECT_EQ(ln_stats.mu(), ln_span.mu());
      EXPECT_EQ(ln_stats.sigma(), ln_span.sigma());

      const Weibull wb_span = Weibull::fit_mle(xs, kFloor);
      const Weibull wb_stats = Weibull::fit_mle_from_logs(
          floored_logs(xs, kFloor), stats.log_shift + stats.log_mean_dev,
          Weibull::shape_hint_from(stats));
      EXPECT_EQ(wb_stats.shape(), wb_span.shape());
      EXPECT_EQ(wb_stats.scale(), wb_span.scale());
    }
  }
}

TEST(SuffStatsOracle, WarmStartHintBracketsTheTrueShape) {
  // The hint (pi/sqrt(6)) / stddev(log x) must land within the solver's
  // initial bracket [hint/1.5, hint*1.5] of the converged MLE for
  // realistic interarrival shapes, or the warm start degenerates into
  // bracket expansion and the batched path loses its advantage.
  for (const double shape : {0.6, 0.75, 1.0, 1.4}) {
    const auto xs = weibull_sample(20000, shape, 7);
    const SuffStats stats = SuffStats::compute(xs, kFloor);
    const double hint = Weibull::shape_hint_from(stats);
    const double fitted = Weibull::fit_mle(xs, kFloor).shape();
    ASSERT_GT(hint, 0.0);
    EXPECT_LT(fitted / hint, 1.5) << "shape " << shape;
    EXPECT_GT(fitted / hint, 1.0 / 1.5) << "shape " << shape;
  }
}

// --- SuffStatsEngine --------------------------------------------------------

// Samples from the stock generators: gap-like positives (median ~0.7 h
// with an exponential tail), some below the 1 s floor.
constexpr std::size_t kCases = 60;

hpcfail::testkit::Gen<std::vector<double>> gap_samples() {
  return hpcfail::testkit::vectors(hpcfail::testkit::positive_reals(3600.0),
                                   2, 400);
}

std::vector<double> parameters(const FitResult& fit) {
  const auto* model = fit.model.get();
  if (const auto* m = dynamic_cast<const Exponential*>(model)) {
    return {m->rate()};
  }
  if (const auto* m = dynamic_cast<const Weibull*>(model)) {
    return {m->shape(), m->scale()};
  }
  if (const auto* m = dynamic_cast<const GammaDist*>(model)) {
    return {m->shape(), m->scale()};
  }
  if (const auto* m = dynamic_cast<const LogNormal*>(model)) {
    return {m->mu(), m->sigma()};
  }
  ADD_FAILURE() << "not a standard-family model: " << model->describe();
  return {};
}

TEST(SuffStatsEngine, FitEqualsSingleFamilyFitReport) {
  const auto samples = gap_samples();
  Rng rng(0x5eed01);
  for (std::size_t c = 0; c < kCases; ++c) {
    const std::vector<double> xs = samples.sample(rng);
    for (const Family family : hpcfail::dist::standard_families()) {
      SCOPED_TRACE("case " + std::to_string(c) + " " +
                   hpcfail::dist::to_string(family));
      const Family one[] = {family};
      std::optional<FitResult> direct;
      try {
        direct = hpcfail::dist::fit(family, xs, kFloor);
      } catch (const Error&) {
      }
      if (!direct) {
        EXPECT_THROW(hpcfail::dist::fit_report(xs, one, kFloor), FitError);
        continue;
      }
      const FitReport report = hpcfail::dist::fit_report(xs, one, kFloor);
      ASSERT_EQ(report.size(), 1u);
      const FitResult& batched = report[0];
      EXPECT_EQ(batched.family, direct->family);
      EXPECT_EQ(parameters(batched), parameters(*direct));
      EXPECT_EQ(batched.nll, direct->nll);
      EXPECT_EQ(batched.aic, direct->aic);
      EXPECT_EQ(batched.ks, direct->ks);
      EXPECT_EQ(batched.ks_pvalue, direct->ks_pvalue);
      EXPECT_EQ(batched.iterations, direct->iterations);
    }
  }
}

TEST(SuffStatsEngine, StreamingReportEqualsRescanningReport) {
  const auto samples = gap_samples();
  const auto streamable = hpcfail::dist::streamable_families();
  Rng rng(0x5eed02);
  for (std::size_t c = 0; c < kCases; ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const std::vector<double> xs = samples.sample(rng);
    const SuffStats stats = SuffStats::compute(xs, kFloor);
    std::optional<FitReport> rescan;
    try {
      rescan = hpcfail::dist::fit_report(xs, streamable, kFloor);
    } catch (const FitError&) {
    }
    if (!rescan) {
      EXPECT_THROW(hpcfail::dist::fit_report_from_stats(stats), FitError);
      continue;
    }
    const FitReport streaming = hpcfail::dist::fit_report_from_stats(stats);
    ASSERT_EQ(streaming.size(), rescan->size());
    EXPECT_EQ(streaming.failed_families, rescan->failed_families);
    EXPECT_EQ(streaming.total_iterations, rescan->total_iterations);
    for (std::size_t i = 0; i < streaming.size(); ++i) {
      EXPECT_EQ(streaming[i].family, (*rescan)[i].family) << "rank " << i;
      EXPECT_EQ(parameters(streaming[i]), parameters((*rescan)[i]));
      EXPECT_EQ(streaming[i].nll, (*rescan)[i].nll);
      EXPECT_EQ(streaming[i].aic, (*rescan)[i].aic);
    }
  }
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

std::vector<std::uint64_t> parameter_bits(const FitResult& fit) {
  std::vector<std::uint64_t> out;
  for (const double p : parameters(fit)) out.push_back(bits(p));
  return out;
}

void expect_same_report(const FitReport& got, const FitReport& want) {
  EXPECT_EQ(got.sample_size, want.sample_size);
  EXPECT_EQ(bits(got.floor_at), bits(want.floor_at));
  EXPECT_EQ(got.failed_families, want.failed_families);
  EXPECT_EQ(got.total_iterations, want.total_iterations);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("rank " + std::to_string(i));
    EXPECT_EQ(got[i].family, want[i].family);
    EXPECT_EQ(parameter_bits(got[i]), parameter_bits(want[i]));
    EXPECT_EQ(bits(got[i].nll), bits(want[i].nll));
    EXPECT_EQ(bits(got[i].aic), bits(want[i].aic));
    EXPECT_EQ(bits(got[i].ks), bits(want[i].ks));
    EXPECT_EQ(bits(got[i].ks_pvalue), bits(want[i].ks_pvalue));
    EXPECT_EQ(got[i].iterations, want[i].iterations);
  }
}

TEST(SuffStatsEngine, SortedCopyReportEqualsTheOneArgumentForm) {
  // Ties, exact zeros and values below the 1 s floor, one element, a
  // constant sample and values near 1e300, then generated gap samples.
  std::vector<std::vector<double>> samples = {
      {3600.0, 60.0, 60.0, 7200.0, 60.0, 3600.0, 60.0},
      {0.0, 0.0, 0.25, 120.0, 0.0, 86400.0, 0.5, 1.0},
      {42.5},
      {900.0, 900.0, 900.0, 900.0, 900.0},
      {1e300, 3e299, 9.5e299, 1.7e300, 2e300, 1e300},
  };
  const auto generated = gap_samples();
  Rng rng(0x5eed03);
  for (std::size_t c = 0; c < kCases; ++c) {
    samples.push_back(generated.sample(rng));
  }
  const auto families = hpcfail::dist::standard_families();
  for (std::size_t c = 0; c < samples.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const std::vector<double>& xs = samples[c];
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    std::optional<FitReport> want;
    try {
      want = hpcfail::dist::fit_report(xs, families, kFloor);
    } catch (const FitError&) {
    }
    if (!want) {
      EXPECT_THROW(hpcfail::dist::fit_report(xs, sorted, families, kFloor),
                   FitError);
      continue;
    }
    expect_same_report(
        hpcfail::dist::fit_report(xs, sorted, families, kFloor), *want);
  }
}

TEST(SuffStatsEngine, SortedCopyReportRejectsAMismatchedCopy) {
  const std::vector<double> xs = {3600.0, 60.0, 7200.0};
  const auto families = hpcfail::dist::standard_families();
  EXPECT_THROW(hpcfail::dist::fit_report(
                   xs, std::vector<double>{3600.0, 60.0, 7200.0}, families),
               hpcfail::InvalidArgument);
  EXPECT_THROW(hpcfail::dist::fit_report(
                   xs, std::vector<double>{60.0, 3600.0}, families),
               hpcfail::InvalidArgument);
  EXPECT_THROW(
      hpcfail::dist::fit_report(
          xs, std::vector<double>{60.0, 60.0, 3600.0, 7200.0}, families),
      hpcfail::InvalidArgument);
}

// --- SuffStatsHostile -------------------------------------------------------

constexpr double kRelTol = 1e-10;

// Cuts the sample at random points into 2..64 contiguous runs (some may be
// empty) and merges the runs' statistics in a shuffled order.
SuffStats merge_of_random_splits(std::span<const double> xs, double floor_at,
                                 Rng& rng) {
  const std::size_t pieces = 2 + rng.uniform_index(63);
  std::vector<std::size_t> cuts = {0, xs.size()};
  for (std::size_t i = 1; i < pieces; ++i) {
    cuts.push_back(rng.uniform_index(xs.size() + 1));
  }
  std::sort(cuts.begin(), cuts.end());
  std::vector<SuffStats> parts;
  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    parts.push_back(SuffStats::compute(
        xs.subspan(cuts[i], cuts[i + 1] - cuts[i]), floor_at));
  }
  for (std::size_t i = parts.size() - 1; i > 0; --i) {  // Fisher-Yates
    std::swap(parts[i], parts[rng.uniform_index(i + 1)]);
  }
  SuffStats merged;
  merged.floor_at = floor_at;
  for (const SuffStats& part : parts) merged.merge(part);
  return merged;
}

// compute(), an add() loop and three shuffled random-split merges.
std::vector<std::pair<std::string, SuffStats>> accumulation_paths(
    std::span<const double> xs, double floor_at, std::uint64_t seed) {
  std::vector<std::pair<std::string, SuffStats>> paths;
  paths.emplace_back("compute", SuffStats::compute(xs, floor_at));
  SuffStats streamed;
  streamed.floor_at = floor_at;
  for (const double x : xs) streamed.add(x);
  paths.emplace_back("add", streamed);
  Rng rng(seed);
  for (int trial = 0; trial < 3; ++trial) {
    paths.emplace_back("merge#" + std::to_string(trial),
                       merge_of_random_splits(xs, floor_at, rng));
  }
  return paths;
}

// Statistics carrying the reference moments in the shifted form (shift =
// mean, zero deviation mean), so the family fits evaluate the reference.
SuffStats reference_stats(const RefMoments& ref, const SuffStats& like) {
  SuffStats s = like;
  const auto n = static_cast<long double>(ref.n);
  s.shift = static_cast<double>(ref.mean);
  s.mean_dev = 0.0;
  s.m2 = static_cast<double>(ref.variance * n);
  s.log_shift = static_cast<double>(ref.mean_log);
  s.log_mean_dev = 0.0;
  s.log_m2 = static_cast<double>(ref.log_variance * n);
  return s;
}

void expect_rel(double got, long double want, const std::string& what) {
  const long double err = std::fabs(static_cast<long double>(got) - want) /
                          std::fabs(want);
  EXPECT_LE(err, kRelTol) << what << ": got " << got << ", reference "
                          << static_cast<double>(want);
}

// Checks every accumulation path against the long-double reference.
// `gamma_identified` is false on near-constant samples, where ln(mean) -
// mean(ln x) is below the rounding of the logs and every path must reject
// the gamma fit with FitError.
void check_against_reference(std::span<const double> xs, double floor_at,
                             std::uint64_t seed, bool gamma_identified) {
  const RefMoments ref = hpcfail::testkit::ref_moments(xs, floor_at);
  const long double ref_sigma = std::sqrt(ref.log_variance);
  for (const auto& [path, s] : accumulation_paths(xs, floor_at, seed)) {
    SCOPED_TRACE(path);
    ASSERT_EQ(s.n, xs.size());
    expect_rel(s.mean(), ref.mean, "mean");
    expect_rel(s.variance(), ref.variance, "variance");
    expect_rel(s.cv_squared(), ref.variance / (ref.mean * ref.mean), "cv2");
    expect_rel(s.log_m2 / static_cast<double>(s.n), ref.log_variance,
               "log-variance");
    expect_rel(LogNormal::fit_mle(s).sigma(), ref_sigma, "lognormal sigma");
    expect_rel(Weibull::shape_hint_from(s), 1.2825498301618641L / ref_sigma,
               "weibull hint");
    if (gamma_identified) {
      const double ref_shape =
          GammaDist::fit_mle(reference_stats(ref, s)).shape();
      expect_rel(GammaDist::fit_mle(s).shape(), ref_shape, "gamma shape");
    } else {
      EXPECT_THROW(GammaDist::fit_mle(s), FitError);
    }
  }
}

std::vector<double> near_constant_gaps(std::size_t n, std::uint64_t seed) {
  // 10^8 s gaps with unit spread: the one-pass variance cancels to 0.
  Rng rng(seed);
  std::vector<double> xs(n);
  for (double& x : xs) x = 1e8 + rng.uniform();
  return xs;
}

TEST(SuffStatsHostile, NearConstantGaps100k) {
  check_against_reference(near_constant_gaps(100'000, 11), 1e-9, 101,
                          /*gamma_identified=*/false);
}

TEST(SuffStatsHostile, NearConstantGaps10M) {
  check_against_reference(near_constant_gaps(10'000'000, 12), 1e-9, 102,
                          /*gamma_identified=*/false);
}

TEST(SuffStatsHostile, HugeMagnitude) {
  // 10^152 (1 + U): the squares of the values overflow, their deviations'
  // squares do not.
  Rng rng(13);
  std::vector<double> xs(100'000);
  for (double& x : xs) x = 1e152 * (1.0 + rng.uniform());
  check_against_reference(xs, 1e-9, 103, /*gamma_identified=*/true);
}

TEST(SuffStatsHostile, WeibullGaps10M) {
  check_against_reference(weibull_sample(10'000'000, 0.7, 14), kFloor, 104,
                          /*gamma_identified=*/true);
}

TEST(SuffStatsHostile, EveryValueAtTheFloor) {
  // Sub-floor positives all floor to 1 s: a constant floored sample with
  // a positive raw mean.
  Rng rng(15);
  std::vector<double> xs(1000);
  double raw_total = 0.0;
  for (double& x : xs) {
    x = rng.uniform_pos();
    raw_total += x;
  }
  constexpr double kAt = 1.0;
  const double raw_rate = static_cast<double>(xs.size()) / raw_total;
  for (const auto& [path, s] : accumulation_paths(xs, kAt, 105)) {
    SCOPED_TRACE(path);
    EXPECT_EQ(s.mean(), kAt);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.cv_squared(), 0.0);
    EXPECT_EQ(s.log_m2, 0.0);
    EXPECT_EQ(Weibull::shape_hint_from(s), 0.0);
    EXPECT_THROW(LogNormal::fit_mle(s), FitError);
    EXPECT_THROW(GammaDist::fit_mle(s), FitError);
    // The exponential rate reads the raw sum, which the floor leaves alone.
    EXPECT_NEAR(Exponential::fit_mle(s).rate(), raw_rate, 1e-12 * raw_rate);
  }
  for (const Family family : {Family::weibull, Family::gamma,
                              Family::lognormal}) {
    EXPECT_THROW(hpcfail::dist::fit(family, xs, kAt), FitError)
        << hpcfail::dist::to_string(family);
  }
  const FitReport report = hpcfail::dist::fit_report(
      xs, hpcfail::dist::standard_families(), kAt);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report.best().family, Family::exponential);
  EXPECT_EQ(report.failed_families, 3u);
  const FitReport streaming =
      hpcfail::dist::fit_report_from_stats(SuffStats::compute(xs, kAt));
  ASSERT_EQ(streaming.size(), 1u);
  EXPECT_EQ(streaming.best().family, Family::exponential);
}

}  // namespace
