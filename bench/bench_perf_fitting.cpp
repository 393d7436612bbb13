// Library quality-of-implementation microbenchmarks: MLE fitting
// throughput per distribution family and sample size (google-benchmark).
//
// Sample construction happens outside every timed loop (the fixtures
// build the data before `for (auto _ : state)`), and every benchmark
// reports items/sec via SetItemsProcessed where an "item" is one fitted
// observation — so rates are comparable across sample sizes and against
// perfbench's end-to-end `dist.fit_points` / `dist.fit_cpu_s`.
//
// BM_FitAllStandard (fit_report: one SuffStats pass, one sorted copy and
// one log cache shared across families) vs BM_FitPerFamilyStandard (one
// independent fit() per family, each preparing the sample itself) is the
// batched-fitting speedup this suite tracks; BM_FitReportManyNodes
// is the paper's per-node Fig 6 sweep shape — thousands of small
// samples through fit_report_many.
#include <benchmark/benchmark.h>

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "dist/fit.hpp"
#include "dist/weibull.hpp"

namespace {

std::vector<double> weibull_sample(std::size_t n, std::uint64_t seed = 7) {
  const hpcfail::dist::Weibull truth(0.75, 86400.0);
  hpcfail::Rng rng(seed);
  std::vector<double> xs;
  xs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) xs.push_back(truth.sample(rng));
  return xs;
}

void BM_FitFamily(benchmark::State& state, hpcfail::dist::Family family) {
  const auto xs = weibull_sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hpcfail::dist::fit(family, xs));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(xs.size()));
}

void BM_FitAllStandard(benchmark::State& state) {
  const auto xs = weibull_sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hpcfail::dist::fit_report(xs, hpcfail::dist::standard_families()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(xs.size()));
}

// The engine fit_report replaced: one fully independent fit() call per
// family on the same sample (per-family sort, per-family reductions,
// per-family KS scan). Dividing its items/sec into BM_FitAllStandard's
// gives the fused-engine speedup at that sample size.
void BM_FitPerFamilyStandard(benchmark::State& state) {
  const auto xs = weibull_sample(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    for (const hpcfail::dist::Family family :
         hpcfail::dist::standard_families()) {
      try {
        benchmark::DoNotOptimize(hpcfail::dist::fit(family, xs));
      } catch (const hpcfail::Error&) {
      }
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(xs.size()));
}

// The per-node batch shape of the paper's Fig 6 sweep: range(0) samples
// of range(1) points each, fitted through fit_report_many on one thread.
void BM_FitReportManyNodes(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto points = static_cast<std::size_t>(state.range(1));
  std::vector<std::vector<double>> samples;
  samples.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    samples.push_back(weibull_sample(points, 7 + i));
  }
  hpcfail::set_parallelism(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hpcfail::dist::fit_report_many(
        samples, hpcfail::dist::standard_families()));
  }
  hpcfail::set_parallelism(0);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(nodes * points));
}

}  // namespace

BENCHMARK_CAPTURE(BM_FitFamily, exponential,
                  hpcfail::dist::Family::exponential)
    ->Arg(1000)->Arg(10000);
BENCHMARK_CAPTURE(BM_FitFamily, weibull, hpcfail::dist::Family::weibull)
    ->Arg(1000)->Arg(10000);
BENCHMARK_CAPTURE(BM_FitFamily, gamma, hpcfail::dist::Family::gamma)
    ->Arg(1000)->Arg(10000);
BENCHMARK_CAPTURE(BM_FitFamily, lognormal,
                  hpcfail::dist::Family::lognormal)
    ->Arg(1000)->Arg(10000);
BENCHMARK(BM_FitAllStandard)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_FitPerFamilyStandard)->Arg(1000)->Arg(10000)->Arg(100000);
BENCHMARK(BM_FitReportManyNodes)->Args({256, 200})->Args({64, 2000});

BENCHMARK_MAIN();
