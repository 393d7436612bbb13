// The observability subsystem's hardest guarantee: metrics collection
// must not perturb results. The generated trace must be bit-identical
// with obs enabled and disabled, at any thread count — instrumentation
// only reads clocks and bumps atomics, never touches PRNG streams or
// assembly order.
#include <gtest/gtest.h>

#include <vector>

#include "common/thread_pool.hpp"
#include "dist/fit.hpp"
#include "obs/metrics.hpp"
#include "synth/generator.hpp"
#include "trace/record.hpp"

namespace {

using hpcfail::trace::FailureRecord;

class ObsDeterminismTest : public ::testing::Test {
 protected:
  ~ObsDeterminismTest() override {
    hpcfail::obs::enable();
    hpcfail::set_parallelism(0);
  }
};

std::vector<FailureRecord> generate_records(std::uint64_t seed) {
  const auto ds = hpcfail::synth::generate_lanl_trace(seed);
  return {ds.records().begin(), ds.records().end()};
}

TEST_F(ObsDeterminismTest, TraceIdenticalWithObsOnAndOff) {
  hpcfail::obs::enable();
  const auto with_obs = generate_records(42);
  hpcfail::obs::disable();
  const auto without_obs = generate_records(42);
  ASSERT_EQ(with_obs.size(), without_obs.size());
  for (std::size_t i = 0; i < with_obs.size(); ++i) {
    ASSERT_EQ(with_obs[i], without_obs[i]) << "record " << i;
  }
}

TEST_F(ObsDeterminismTest, TraceIdenticalWithObsAcrossThreadCounts) {
  hpcfail::obs::disable();
  hpcfail::set_parallelism(1);
  const auto baseline = generate_records(7);

  hpcfail::obs::enable();
  for (const unsigned threads : {1u, 2u, 8u}) {
    hpcfail::set_parallelism(threads);
    const auto observed = generate_records(7);
    ASSERT_EQ(observed.size(), baseline.size())
        << "at " << threads << " threads";
    for (std::size_t i = 0; i < observed.size(); ++i) {
      ASSERT_EQ(observed[i], baseline[i])
          << "record " << i << " at " << threads << " threads";
    }
  }
}

TEST_F(ObsDeterminismTest, FitResultsIdenticalWithObsOnAndOff) {
  std::vector<double> xs;
  xs.reserve(4000);
  for (int i = 1; i <= 4000; ++i) {
    xs.push_back(17.0 + 0.01 * static_cast<double>(i * i % 997));
  }
  hpcfail::obs::enable();
  const auto with_obs =
      hpcfail::dist::fit_report(xs, hpcfail::dist::standard_families());
  hpcfail::obs::disable();
  const auto without_obs =
      hpcfail::dist::fit_report(xs, hpcfail::dist::standard_families());
  ASSERT_EQ(with_obs.size(), without_obs.size());
  for (std::size_t i = 0; i < with_obs.size(); ++i) {
    EXPECT_EQ(with_obs[i].family, without_obs[i].family);
    EXPECT_DOUBLE_EQ(with_obs[i].nll, without_obs[i].nll);
    EXPECT_DOUBLE_EQ(with_obs[i].ks, without_obs[i].ks);
    EXPECT_EQ(with_obs[i].iterations, without_obs[i].iterations);
  }
}

TEST_F(ObsDeterminismTest, GenerationFillsTheRegistry) {
  hpcfail::obs::enable();
  hpcfail::obs::registry().reset();
  (void)generate_records(42);
  const auto snap = hpcfail::obs::registry().snapshot();
  EXPECT_GT(hpcfail::obs::registry().counter("synth.records_total").value(),
            0u);
  bool has_stage_histogram = false;
  bool has_shard_histogram = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "synth.generate.seconds") has_stage_histogram = true;
    if (h.name.rfind("synth.shard_seconds{", 0) == 0) {
      has_shard_histogram = true;
    }
  }
  EXPECT_TRUE(has_stage_histogram);
  EXPECT_TRUE(has_shard_histogram);
}

}  // namespace
