// MLE fitting and model comparison, reproducing the paper's methodology:
// "We use maximum likelihood estimation to parameterize the distributions
//  and evaluate the goodness of fit by visual inspection and the negative
//  log-likelihood test."
//
// fit_report() parameterizes every requested family on the same sample
// and returns a FitReport: the per-family FitResults ranked best-first by
// negative log-likelihood (`nll`), plus how many families failed and how
// many solver iterations the MLEs took (surfaced through obs as well).
// fit_report_many() is the batched form used for the paper's per-node
// (Fig 6) and per-system (Fig 7) sweeps.
//
// The paper's four standard families (exponential, Weibull, gamma,
// lognormal) have one fitting engine, shared by fit(), fit_report() and
// fit_report_from_stats(): the MLE from the sample's SuffStats, the
// closed-form nll at it, and the KS distance over the sorted floored
// sample (0 when only statistics are given). Weibull alone also reads the
// sample's cached logs. The three entry points therefore agree bit for
// bit wherever they overlap.
//
// Beyond the paper's four standard families and the Fig 3(b) count
// models, the fitter also knows Pareto (the heavy-tailed alternative the
// paper rejects for interarrival data) and the two-phase hyperexponential
// (the classic C^2 > 1 renewal model); all eight are exercised by the
// testkit calibration oracles.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dist/distribution.hpp"
#include "dist/suffstats.hpp"

namespace hpcfail::dist {

/// The model families the paper fits.
enum class Family {
  exponential,
  weibull,
  gamma,
  lognormal,
  normal,
  poisson,
  pareto,
  hyperexp,
};

std::string to_string(Family family);

/// Outcome of fitting one family to one sample.
struct FitResult {
  Family family;
  std::unique_ptr<Distribution> model;  ///< never null
  double nll = 0.0;      ///< negative log-likelihood
  double aic = 0.0;      ///< 2k + 2 * nll
  double ks = 0.0;       ///< Kolmogorov-Smirnov distance
  double ks_pvalue = 0.0;
  /// Solver iterations the MLE needed (0 for closed-form families).
  std::uint64_t iterations = 0;

  FitResult() = default;
  FitResult(FitResult&&) = default;
  FitResult& operator=(FitResult&&) = default;
  FitResult(const FitResult& other);
  FitResult& operator=(const FitResult& other);
};

/// The outcome of fitting a set of families to one sample: the successful
/// fits ranked best-first by nll, plus what it cost. Iterates like the
/// ranked vector so result consumers can treat it as the ranking.
struct FitReport {
  std::vector<FitResult> ranked;     ///< successful fits, best first
  std::size_t sample_size = 0;       ///< observations fitted
  double floor_at = 0.0;             ///< resolution floor applied
  std::size_t failed_families = 0;   ///< families whose fit threw
  std::uint64_t total_iterations = 0;  ///< solver steps across families

  const FitResult& best() const { return ranked.front(); }
  bool empty() const noexcept { return ranked.empty(); }
  std::size_t size() const noexcept { return ranked.size(); }
  const FitResult& operator[](std::size_t i) const { return ranked[i]; }
  const FitResult& front() const { return ranked.front(); }
  const FitResult& back() const { return ranked.back(); }
  auto begin() const noexcept { return ranked.begin(); }
  auto end() const noexcept { return ranked.end(); }
};

/// Number of free parameters of a family (for AIC).
int parameter_count(Family family) noexcept;

/// Fits one family by MLE and computes all goodness-of-fit measures.
/// Observations below `floor_at` are floored inside the positive-support
/// fitters; the likelihood is evaluated on the same floored data so
/// families compete on an equal footing. Callers choose the floor from the
/// data's resolution (e.g. 1.0 for second-resolution interarrival times
/// with exact-zero simultaneous failures). For a standard family the
/// result equals fit_report(xs, {family}, floor_at)[0] bit for bit, nll,
/// KS and solver iterations included. Throws InvalidArgument on
/// structurally unusable samples (empty, negative floor) and FitError
/// when the family is degenerate on the sample — e.g. a constant-valued
/// (zero-variance) sample for any two-parameter family; fit_report()
/// counts the latter into failed_families.
FitResult fit(Family family, std::span<const double> xs,
              double floor_at = 1e-9);

/// The paper's four standard reliability distributions (Fig 6, Fig 7a).
std::span<const Family> standard_families() noexcept;

/// The three count-model families of Fig 3(b).
std::span<const Family> count_families() noexcept;

/// Every family the fitter knows, in enum order (the testkit calibration
/// oracles sweep this).
std::span<const Family> all_families() noexcept;

/// Fits every family in `families` and ranks the successes best-first by
/// nll (ties broken by enum order, so the ranking is a deterministic
/// function of the sample alone — independent of the thread count and of
/// the order families were requested in). Families whose fit throws
/// (e.g. degenerate sample for that family) are counted in
/// `failed_families` and skipped; throws FitError if none succeed.
/// Families are fitted in turn on the calling thread, the standard ones
/// from one shared preparation of the sample (SuffStats, sorted copy,
/// logs); batched sweeps parallelize across samples (fit_report_many).
/// Sorts a copy of the sample and forwards to the form below.
FitReport fit_report(std::span<const double> xs,
                     std::span<const Family> families,
                     double floor_at = 1e-9);

/// fit_report() over a sample and its ascending copy, for callers that
/// sort a sample once and share the copy (e.g. with stats::summarize).
/// SuffStats and the Weibull logs accumulate over `xs` in sample order;
/// only KS reads `sorted`, floored as it goes (flooring is monotone, so
/// floor-then-sort equals sort-then-floor). The result equals
/// fit_report(xs, families, floor_at) bit for bit. Throws InvalidArgument
/// when `sorted` differs in size from `xs` or is not sorted.
FitReport fit_report(std::span<const double> xs,
                     std::span<const double> sorted,
                     std::span<const Family> families,
                     double floor_at = 1e-9);

/// Batched fit_report over many independent samples (the paper's per-node
/// interarrival fits of Fig 6 and per-system repair fits of Fig 7),
/// fanned out across the shared pool. Returns one report per sample, in
/// sample order; a sample on which every family fails (or which is
/// empty) yields an empty report instead of throwing, so one degenerate
/// node cannot abort a whole sweep.
std::vector<FitReport> fit_report_many(
    std::span<const std::vector<double>> samples,
    std::span<const Family> families, double floor_at = 1e-9);

/// The families fittable from sufficient statistics alone (exponential,
/// gamma, lognormal) — the streaming daemon's windowed fit set. Weibull
/// is excluded: its profile likelihood needs Σx^k for solver-chosen k,
/// which moments cannot provide.
std::span<const Family> streamable_families() noexcept;

/// Streaming FitReport from sufficient statistics alone — no sample is
/// rescanned or even retained, so windowed live fits are O(1) in the
/// window size. Fits streamable_families() through the standard-family
/// engine with no sample, so fit_report_from_stats(SuffStats::compute(xs,
/// floor)) equals fit_report(xs, streamable_families(), floor) bit for
/// bit in families, parameters, nll and AIC. KS distances need the
/// sample: ks/ks_pvalue are reported as 0. Degenerate families are
/// counted into failed_families; throws FitError when none succeed
/// (including the empty-stats case).
FitReport fit_report_from_stats(const SuffStats& stats);

/// Convenience: best (lowest nll) among the paper's four standard
/// families.
FitResult best_standard_fit(std::span<const double> xs);

}  // namespace hpcfail::dist
