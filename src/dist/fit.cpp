#include "dist/fit.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "dist/exponential.hpp"
#include "dist/gamma.hpp"
#include "dist/hyperexp.hpp"
#include "dist/lognormal.hpp"
#include "dist/normal.hpp"
#include "dist/pareto.hpp"
#include "dist/poisson.hpp"
#include "dist/suffstats.hpp"
#include "dist/weibull.hpp"
#include "obs/metrics.hpp"
#include "stats/descriptive.hpp"
#include "stats/ks.hpp"
#include "stats/solver.hpp"
#include "stats/special.hpp"

namespace hpcfail::dist {

std::string to_string(Family family) {
  switch (family) {
    case Family::exponential: return "exponential";
    case Family::weibull: return "weibull";
    case Family::gamma: return "gamma";
    case Family::lognormal: return "lognormal";
    case Family::normal: return "normal";
    case Family::poisson: return "poisson";
    case Family::pareto: return "pareto";
    case Family::hyperexp: return "hyperexp";
  }
  throw InvalidArgument("unknown distribution family");
}

FitResult::FitResult(const FitResult& other)
    : family(other.family),
      model(other.model ? other.model->clone() : nullptr),
      nll(other.nll),
      aic(other.aic),
      ks(other.ks),
      ks_pvalue(other.ks_pvalue),
      iterations(other.iterations) {}

FitResult& FitResult::operator=(const FitResult& other) {
  if (this != &other) {
    family = other.family;
    model = other.model ? other.model->clone() : nullptr;
    nll = other.nll;
    aic = other.aic;
    ks = other.ks;
    ks_pvalue = other.ks_pvalue;
    iterations = other.iterations;
  }
  return *this;
}

int parameter_count(Family family) noexcept {
  switch (family) {
    case Family::exponential:
    case Family::poisson:
      return 1;
    case Family::hyperexp:
      return 3;  // two rates + one mixing weight
    default:
      return 2;
  }
}

namespace {

// The paper's four families, which fit through SuffStats; the others
// (normal, poisson, pareto, hyperexp) keep their span fitters.
bool standard(Family family) noexcept {
  switch (family) {
    case Family::exponential:
    case Family::weibull:
    case Family::gamma:
    case Family::lognormal:
      return true;
    default:
      return false;
  }
}

// One place for the per-family obs metrics of a successful fit.
void record_fit(const FitResult& result, std::size_t sample_size) {
  if (!hpcfail::obs::enabled()) return;
  hpcfail::obs::Registry& reg = hpcfail::obs::registry();
  const std::string label = "{family=" + to_string(result.family) + "}";
  reg.counter("dist.fit.total" + label).add(1);
  reg.counter("dist.fit.solver_steps" + label).add(result.iterations);
  reg.histogram("dist.fit.sample_size" + label)
      .record(static_cast<double>(sample_size));
}

// A sample prepared for the standard families: its floored logs in
// sample order (for the Weibull solver), taken by the same pass that
// accumulates its sufficient statistics, and its ascending copy (borrowed
// from the caller; KS floors it as it reads). Built once per sample and
// shared by every standard family fitted to it.
struct Prepared {
  std::vector<double> logs;
  SuffStats stats;
  std::span<const double> sorted;

  Prepared(std::span<const double> xs, std::span<const double> sorted_xs,
           double floor_at)
      : logs(xs.size()),
        stats(SuffStats::compute(xs, floor_at, logs)),
        sorted(sorted_xs) {}
};

// The fitting engine of the standard families, shared by fit(),
// fit_report() and fit_report_from_stats(): the MLE from the sufficient
// statistics, the closed-form nll at it, and the KS distance over the
// ascending sample floored at stats.floor_at — 0 (with ks_pvalue 0) when
// no sample is given. `logs` feeds the Weibull solver, the one family
// that needs the sample itself.
FitResult fit_standard(Family family, const SuffStats& stats,
                       std::span<const double> sorted,
                       std::span<const double> logs) {
  const double mean_log = stats.log_shift + stats.log_mean_dev;
  // solver_steps() is thread-local and the MLE runs on this thread, so
  // the difference is exactly this fit's iteration count.
  const std::uint64_t steps_before = hpcfail::stats::solver_steps();
  FitResult result;
  result.family = family;
  // Mean log-likelihood per floored observation at the MLE.
  double loglik = 0.0;
  switch (family) {
    case Family::exponential: {
      const Exponential model = Exponential::fit_mle(stats);
      const double rate = model.rate();
      loglik = std::log(rate) - rate * stats.mean();
      result.model = std::make_unique<Exponential>(model);
      break;
    }
    case Family::weibull: {
      const Weibull model = Weibull::fit_mle_from_logs(
          logs, mean_log, Weibull::shape_hint_from(stats));
      const double k = model.shape();
      const double scale = model.scale();
      // log f = ln(k/scale) + (k-1) ln(x/scale) - (x/scale)^k; the last
      // term averages to exactly 1 at the MLE (the scale equation).
      loglik = std::log(k / scale) +
               (k - 1.0) * (mean_log - std::log(scale)) - 1.0;
      result.model = std::make_unique<Weibull>(model);
      break;
    }
    case Family::gamma: {
      const GammaDist model = GammaDist::fit_mle(stats);
      const double k = model.shape();
      const double scale = model.scale();
      loglik = (k - 1.0) * mean_log - stats.mean() / scale -
               hpcfail::stats::log_gamma_unchecked(k) - k * std::log(scale);
      result.model = std::make_unique<GammaDist>(model);
      break;
    }
    case Family::lognormal: {
      const LogNormal model = LogNormal::fit_mle(stats);
      // The squared z-score averages to exactly 1 at the MLE.
      loglik = -0.5 - mean_log - std::log(model.sigma()) -
               0.5 * std::log(2.0 * 3.14159265358979323846);
      result.model = std::make_unique<LogNormal>(model);
      break;
    }
    default:
      throw InvalidArgument(to_string(family) +
                            " is not fitted from sufficient statistics");
  }
  result.iterations = hpcfail::stats::solver_steps() - steps_before;
  result.nll = -static_cast<double>(stats.n) * loglik;
  result.aic = 2.0 * parameter_count(family) + 2.0 * result.nll;
  if (!sorted.empty()) {
    const Distribution& model = *result.model;
    const double floor_at = stats.floor_at;
    // Flooring is monotone, so the floored values stay ascending: the same
    // sequence as sorting the floored sample.
    result.ks = hpcfail::stats::ks_statistic_sorted(
        sorted.size(), [&](std::size_t i) {
          const double x = sorted[i];
          return model.cdf(x < floor_at ? floor_at : x);
        });
    result.ks_pvalue = hpcfail::stats::ks_pvalue(result.ks, sorted.size());
  }
  record_fit(result, stats.n);
  if (hpcfail::obs::enabled()) {
    hpcfail::obs::registry()
        .counter(sorted.empty() ? "fit.streaming_fits" : "fit.suffstat_reuse")
        .add(1);
  }
  return result;
}

// The span fitters of the other families: the MLE on the sample, the
// elementwise likelihood and a full-scan KS, on the floored sample for the
// positive-support families so likelihoods compare on an equal footing.
FitResult fit_span(Family family, std::span<const double> xs,
                   double floor_at) {
  const std::uint64_t steps_before = hpcfail::stats::solver_steps();
  FitResult result;
  result.family = family;
  switch (family) {
    case Family::normal:
      result.model = std::make_unique<Normal>(Normal::fit_mle(xs));
      break;
    case Family::poisson:
      result.model = std::make_unique<Poisson>(Poisson::fit_mle(xs));
      break;
    case Family::pareto:
      result.model = std::make_unique<Pareto>(Pareto::fit_mle(xs, floor_at));
      break;
    case Family::hyperexp:
      result.model =
          std::make_unique<HyperExp>(HyperExp::fit_em(xs, floor_at));
      break;
    default:
      throw InvalidArgument(to_string(family) +
                            " is fitted from sufficient statistics");
  }
  result.iterations = hpcfail::stats::solver_steps() - steps_before;

  std::vector<double> eval(xs.begin(), xs.end());
  if (family != Family::normal) {
    for (double& x : eval) {
      if (x < floor_at) x = floor_at;
    }
  }
  result.nll = -result.model->log_likelihood(eval);
  result.aic = 2.0 * parameter_count(family) + 2.0 * result.nll;
  const Distribution& model = *result.model;
  result.ks = hpcfail::stats::ks_statistic(
      eval, [&model](double x) { return model.cdf(x); });
  result.ks_pvalue = hpcfail::stats::ks_pvalue(result.ks, eval.size());
  record_fit(result, xs.size());
  return result;
}

// Adds `family`'s fit to the report, or counts the family as failed when
// the fit throws (e.g. a degenerate sample for that family), so one
// family's legitimate failure does not abort the comparison.
template <typename FitFn>
void add_fit(FitReport& report, Family family, FitFn&& fit_family) {
  try {
    FitResult fitted = fit_family();
    report.total_iterations += fitted.iterations;
    report.ranked.push_back(std::move(fitted));
  } catch (const Error&) {
    if (hpcfail::obs::enabled()) {
      hpcfail::obs::registry()
          .counter("dist.fit.failures{family=" + to_string(family) + "}")
          .add(1);
    }
    ++report.failed_families;
  }
}

// Ranks the successful fits best-first by nll; throws FitError when none
// succeeded. Equal likelihoods tie-break by enum order, so the ranking is
// a pure function of the sample — independent of the order the families
// were requested in and of the thread count.
FitReport ranked(FitReport report) {
  if (report.ranked.empty()) {
    throw FitError("no distribution family could be fitted");
  }
  std::sort(report.ranked.begin(), report.ranked.end(),
            [](const FitResult& a, const FitResult& b) {
              if (a.nll != b.nll) return a.nll < b.nll;
              return a.family < b.family;
            });
  return report;
}

}  // namespace

FitResult fit(Family family, std::span<const double> xs, double floor_at) {
  HPCFAIL_EXPECTS(!xs.empty(), "fit on empty sample");
  HPCFAIL_EXPECTS(floor_at > 0.0, "fit floor must be positive");
  if (!standard(family)) return fit_span(family, xs, floor_at);
  const std::vector<double> sorted = hpcfail::stats::sorted_copy(xs);
  const Prepared prep(xs, sorted, floor_at);
  return fit_standard(family, prep.stats, prep.sorted, prep.logs);
}

std::span<const Family> standard_families() noexcept {
  static constexpr std::array<Family, 4> kFamilies = {
      Family::weibull, Family::lognormal, Family::gamma, Family::exponential};
  return kFamilies;
}

std::span<const Family> count_families() noexcept {
  static constexpr std::array<Family, 3> kFamilies = {
      Family::poisson, Family::normal, Family::lognormal};
  return kFamilies;
}

std::span<const Family> all_families() noexcept {
  static constexpr std::array<Family, 8> kFamilies = {
      Family::exponential, Family::weibull,  Family::gamma,
      Family::lognormal,   Family::normal,   Family::poisson,
      Family::pareto,      Family::hyperexp};
  return kFamilies;
}

FitReport fit_report(std::span<const double> xs,
                     std::span<const Family> families, double floor_at) {
  return fit_report(xs, hpcfail::stats::sorted_copy(xs), families, floor_at);
}

FitReport fit_report(std::span<const double> xs,
                     std::span<const double> sorted,
                     std::span<const Family> families, double floor_at) {
  HPCFAIL_EXPECTS(sorted.size() == xs.size(),
                  "fit_report: sorted copy differs in size from the sample");
  HPCFAIL_EXPECTS(std::is_sorted(sorted.begin(), sorted.end()),
                  "fit_report: sorted copy is not sorted");
  FitReport report;
  report.sample_size = xs.size();
  report.floor_at = floor_at;
  report.ranked.reserve(families.size());
  // The standard families share one preparation of the sample, built on
  // first use. When it throws (non-positive floor, negative data) every
  // standard family counts as failed, as its own fit() would have.
  std::optional<Prepared> prep;
  for (const Family family : families) {
    add_fit(report, family, [&] {
      if (!standard(family)) return fit(family, xs, floor_at);
      if (!prep) prep.emplace(xs, sorted, floor_at);
      return fit_standard(family, prep->stats, prep->sorted, prep->logs);
    });
  }
  return ranked(std::move(report));
}

std::vector<FitReport> fit_report_many(
    std::span<const std::vector<double>> samples,
    std::span<const Family> families, double floor_at) {
  // One task per sample; the nested fit_report runs sequentially on the
  // worker (nested parallelism degrades inline), so batched fits scale
  // with the number of samples without oversubscribing the pool.
  return hpcfail::parallel_map(
      samples.size(),
      [samples, families, floor_at](std::size_t i) -> FitReport {
        if (samples[i].empty()) return {};
        try {
          return fit_report(samples[i], families, floor_at);
        } catch (const Error&) {
          FitReport failed;
          failed.sample_size = samples[i].size();
          failed.floor_at = floor_at;
          failed.failed_families = families.size();
          return failed;
        }
      });
}

std::span<const Family> streamable_families() noexcept {
  static constexpr std::array<Family, 3> kFamilies = {
      Family::exponential, Family::gamma, Family::lognormal};
  return kFamilies;
}

FitReport fit_report_from_stats(const SuffStats& stats) {
  FitReport report;
  report.sample_size = stats.n;
  report.floor_at = stats.floor_at;
  for (const Family family : streamable_families()) {
    add_fit(report, family,
            [&] { return fit_standard(family, stats, {}, {}); });
  }
  return ranked(std::move(report));
}

FitResult best_standard_fit(std::span<const double> xs) {
  auto report = fit_report(xs, standard_families());
  return std::move(report.ranked.front());
}

}  // namespace hpcfail::dist
