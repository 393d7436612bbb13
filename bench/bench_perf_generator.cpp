// Library quality-of-implementation microbenchmarks: synthetic trace
// generation throughput (google-benchmark). BM_GenerateFullTrace runs at
// the default worker-pool size (hardware concurrency);
// BM_GenerateFullTraceSequential pins the pool to one thread as the
// speedup baseline. bench_perf_parallel sweeps the thread count.
//
// BM_GenerateFullTrace vs BM_GenerateFullTraceObsOff is the
// observability overhead budget: the instrumented generator must stay
// within 2% of its obs::disable()d self.
//
// BM_GenerateBulk scales every system's failure volume by range(0) so the
// bulk pipeline (columnar emission + radix merge) dominates instead of
// the per-system planning cost that bounds the paper-scale runs; the
// end-to-end generation numbers (`synth.generate_s`,
// `synth.generate_cpu_s` on a ~1M-record trace) come from perfbench's
// traced `batch_pipeline` run.
#include <benchmark/benchmark.h>

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "synth/generator.hpp"
#include "synth/scenario.hpp"
#include "trace/catalog.hpp"

namespace {

void BM_GenerateSystem(benchmark::State& state) {
  const int system_id = static_cast<int>(state.range(0));
  const hpcfail::synth::TraceGenerator generator(
      hpcfail::trace::SystemCatalog::lanl(),
      hpcfail::synth::lanl_scenario(42));
  std::size_t records = 0;
  for (auto _ : state) {
    auto recs = generator.generate_system(system_id);
    records += recs.size();
    benchmark::DoNotOptimize(recs);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}

void BM_GenerateFullTrace(benchmark::State& state) {
  std::size_t records = 0;
  for (auto _ : state) {
    auto dataset = hpcfail::synth::generate_lanl_trace(42);
    records += dataset.size();
    benchmark::DoNotOptimize(dataset);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}

void BM_GenerateFullTraceSequential(benchmark::State& state) {
  hpcfail::set_parallelism(1);
  std::size_t records = 0;
  for (auto _ : state) {
    auto dataset = hpcfail::synth::generate_lanl_trace(42);
    records += dataset.size();
    benchmark::DoNotOptimize(dataset);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  hpcfail::set_parallelism(0);
}

void BM_GenerateBulk(benchmark::State& state) {
  hpcfail::synth::ScenarioConfig cfg = hpcfail::synth::lanl_scenario(2024);
  for (auto& s : cfg.systems) {
    s.failures_per_year *= static_cast<double>(state.range(0));
  }
  const hpcfail::synth::TraceGenerator generator(
      hpcfail::trace::SystemCatalog::lanl(), std::move(cfg));
  std::size_t records = 0;
  for (auto _ : state) {
    auto dataset = generator.generate();
    records += dataset.size();
    benchmark::DoNotOptimize(dataset);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}

void BM_GenerateFullTraceObsOff(benchmark::State& state) {
  hpcfail::obs::disable();
  std::size_t records = 0;
  for (auto _ : state) {
    auto dataset = hpcfail::synth::generate_lanl_trace(42);
    records += dataset.size();
    benchmark::DoNotOptimize(dataset);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
  hpcfail::obs::enable();
}

}  // namespace

// System 2 (tiny), 20 (big NUMA, 8.9 years), 7 (1024 nodes).
BENCHMARK(BM_GenerateSystem)->Arg(2)->Arg(20)->Arg(7);
BENCHMARK(BM_GenerateFullTrace)->UseRealTime();
// 10x and 100x the calibrated failure volume (~260k and ~2.6M records).
BENCHMARK(BM_GenerateBulk)->Arg(10)->Arg(100)->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GenerateFullTraceSequential)->UseRealTime();
BENCHMARK(BM_GenerateFullTraceObsOff)->UseRealTime();

BENCHMARK_MAIN();
