#include "synth/generator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "trace/index.hpp"
#include "trace/validate.hpp"
#include "stats/descriptive.hpp"

namespace hpcfail::synth {
namespace {

using trace::FailureDataset;
using trace::FailureRecord;
using trace::SystemCatalog;

TEST(LanlScenario, CoversAllSystemsWithPaperAnchors) {
  const ScenarioConfig cfg = lanl_scenario();
  EXPECT_EQ(cfg.systems.size(), 22u);
  for (const SystemScenario& s : cfg.systems) {
    EXPECT_TRUE(SystemCatalog::lanl().contains(s.system_id));
  }
  // The paper's quoted extremes: 17/yr (system 2) and 1159/yr (system 7).
  EXPECT_DOUBLE_EQ(cfg.systems[1].failures_per_year, 17.0);
  EXPECT_DOUBLE_EQ(cfg.systems[6].failures_per_year, 1159.0);
}

TEST(Generator, IsDeterministic) {
  const TraceGenerator gen(SystemCatalog::lanl(), lanl_scenario(7));
  const auto a = gen.generate_system(12);
  const auto b = gen.generate_system(12);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Generator, DifferentSeedsGiveDifferentTraces) {
  const TraceGenerator a(SystemCatalog::lanl(), lanl_scenario(1));
  const TraceGenerator b(SystemCatalog::lanl(), lanl_scenario(2));
  EXPECT_NE(a.generate_system(12).size() * 1000 +
                a.generate_system(12).front().start % 1000,
            b.generate_system(12).size() * 1000 +
                b.generate_system(12).front().start % 1000);
}

TEST(Generator, SubsetRegeneratesIdentically) {
  // Per-(system, node) seeding: generating system 13 alone must equal
  // its slice of the full trace.
  const TraceGenerator gen(SystemCatalog::lanl(), lanl_scenario(42));
  const FailureDataset full = gen.generate();
  const FailureDataset solo(gen.generate_system(13));
  const trace::DatasetView slice = full.view().for_system(13);
  ASSERT_EQ(solo.size(), slice.size());
  for (std::size_t i = 0; i < solo.size(); ++i) {
    EXPECT_EQ(solo.records()[i], slice.records()[i]);
  }
}

TEST(Generator, AllRecordsAreConsistentAndInProduction) {
  const TraceGenerator gen(SystemCatalog::lanl(), lanl_scenario(42));
  for (const int id : {2, 5, 20, 22}) {
    const auto& sys = SystemCatalog::lanl().system(id);
    for (const FailureRecord& r : gen.generate_system(id)) {
      ASSERT_TRUE(r.is_consistent());
      ASSERT_EQ(r.system_id, id);
      ASSERT_GE(r.node_id, 0);
      ASSERT_LT(r.node_id, sys.nodes);
      const auto& cat = sys.category_for_node(r.node_id);
      ASSERT_GE(r.start, cat.production_start);
      ASSERT_LT(r.start, cat.production_end);
      ASSERT_GE(r.downtime_seconds(), 60);  // minute resolution floor
      ASSERT_EQ(r.workload, sys.workload_of(r.node_id));
    }
  }
}

TEST(Generator, CalibratedRatesLandNearTargets) {
  const TraceGenerator gen(SystemCatalog::lanl(), lanl_scenario(42));
  for (const SystemScenario& scen : gen.config().systems) {
    if (scen.failures_per_year < 100.0) continue;  // too noisy to pin
    const auto& sys = SystemCatalog::lanl().system(scen.system_id);
    const double observed =
        static_cast<double>(gen.generate_system(scen.system_id).size()) /
        sys.production_years();
    EXPECT_NEAR(observed / scen.failures_per_year, 1.0, 0.20)
        << "system " << scen.system_id;
  }
}

TEST(Generator, FullTraceHasPaperScaleAndSpan) {
  const FailureDataset ds = generate_lanl_trace(42);
  // The paper analyzes ~23000 failures over 1996-2005.
  EXPECT_GT(ds.size(), 18000u);
  EXPECT_LT(ds.size(), 32000u);
  EXPECT_GE(ds.first_start(), to_epoch(1996, 6, 1));
  EXPECT_LE(ds.first_start(), to_epoch(1998, 1, 1));
  EXPECT_EQ(ds.system_ids().size(), 22u);
}

TEST(Generator, GraphicsNodesAreFailureHotSpots) {
  // Fig 3(a): system 20's three graphics nodes (6% of nodes) hold ~20%
  // of its failures.
  const TraceGenerator gen(SystemCatalog::lanl(), lanl_scenario(42));
  const FailureDataset ds(gen.generate_system(20));
  const auto counts = ds.view().for_system(20).failures_per_node();
  std::size_t total = 0;
  std::size_t graphics = 0;
  for (const auto& [node, count] : counts) {
    total += count;
    if (node >= 21 && node <= 23) graphics += count;
  }
  const double share =
      static_cast<double>(graphics) / static_cast<double>(total);
  EXPECT_GT(share, 0.12);
  EXPECT_LT(share, 0.30);
}

TEST(Generator, EarlyEraHasSimultaneousFailures) {
  // Fig 6(c): >30% of system-wide interarrivals are zero early on.
  const TraceGenerator gen(SystemCatalog::lanl(), lanl_scenario(42));
  const FailureDataset ds(gen.generate_system(20));
  const auto early = ds.view()
                         .for_system(20)
                         .between(to_epoch(1997, 1, 1), to_epoch(2000, 1, 1))
                         .system_interarrivals();
  ASSERT_GT(early.size(), 100u);
  std::size_t zeros = 0;
  for (const double g : early) {
    if (g == 0.0) ++zeros;
  }
  EXPECT_GT(static_cast<double>(zeros) / static_cast<double>(early.size()),
            0.30);
  // Late era: far fewer simultaneous failures.
  const auto late = ds.view()
                        .for_system(20)
                        .between(to_epoch(2001, 1, 1), to_epoch(2006, 1, 1))
                        .system_interarrivals();
  std::size_t late_zeros = 0;
  for (const double g : late) {
    if (g == 0.0) ++late_zeros;
  }
  EXPECT_LT(static_cast<double>(late_zeros) /
                static_cast<double>(late.size()),
            0.15);
}

TEST(Generator, LateEraInterarrivalsAreOverdispersed) {
  // The paper's C^2 of 1.9 at node 22 of system 20 (2000-2005): demand
  // C^2 > 1.3 so the exponential assumption is visibly wrong.
  const TraceGenerator gen(SystemCatalog::lanl(), lanl_scenario(42));
  const FailureDataset ds(gen.generate_system(20));
  const auto gaps = ds.view()
                        .for_system(20)
                        .between(to_epoch(2000, 1, 1), to_epoch(2006, 1, 1))
                        .node_interarrivals(22);
  ASSERT_GT(gaps.size(), 50u);
  EXPECT_GT(hpcfail::stats::cv_squared(gaps), 1.3);
}

TEST(Generator, WorksWithCustomCatalogs) {
  // The generator is not tied to the LANL site: a hypothetical two-system
  // catalog with its own scenario must calibrate and validate the same
  // way (this is the API the scaling bench uses).
  trace::SystemInfo small;
  small.id = 1;
  small.hw_type = 'F';
  small.numa = false;
  small.nodes = 16;
  small.procs = 32;
  small.categories = {{0, 16, 2, 4.0, 1, to_epoch(2004, 1, 1),
                       to_epoch(2006, 1, 1)}};
  trace::SystemInfo large = small;
  large.id = 2;
  large.nodes = 64;
  large.procs = 128;
  large.categories = {{0, 64, 2, 4.0, 1, to_epoch(2004, 1, 1),
                       to_epoch(2006, 1, 1)}};
  const trace::SystemCatalog catalog({small, large});

  ScenarioConfig cfg;
  cfg.seed = 5;
  for (const auto& [id, per_year] : {std::pair{1, 80.0},
                                     std::pair{2, 320.0}}) {
    SystemScenario s;
    s.system_id = id;
    s.failures_per_year = per_year;
    s.lifecycle.amplitude = 0.0;  // flat
    cfg.systems.push_back(s);
  }
  const TraceGenerator gen(catalog, cfg);
  const trace::FailureDataset ds = gen.generate();
  EXPECT_TRUE(trace::validate(ds, catalog).clean() ||
              trace::validate(ds, catalog)
                      .count(trace::ValidationIssueKind::
                                 overlapping_repair) ==
                  trace::validate(ds, catalog).issues.size());
  const double small_rate =
      static_cast<double>(ds.view().for_system(1).size()) / 2.0;
  const double large_rate =
      static_cast<double>(ds.view().for_system(2).size()) / 2.0;
  EXPECT_NEAR(small_rate / 80.0, 1.0, 0.25);
  EXPECT_NEAR(large_rate / 320.0, 1.0, 0.25);
  // Linear scaling: 4x the nodes at 4x the target rate.
  EXPECT_NEAR(large_rate / small_rate, 4.0, 1.0);
}

TEST(Generator, RejectsUnknownSystemInScenario) {
  ScenarioConfig cfg = lanl_scenario();
  cfg.systems[0].system_id = 99;
  EXPECT_THROW(TraceGenerator(SystemCatalog::lanl(), cfg),
               hpcfail::InvalidArgument);
}

TEST(Generator, RejectsBadParameters) {
  ScenarioConfig cfg = lanl_scenario();
  cfg.systems[0].failures_per_year = 0.0;
  EXPECT_THROW(TraceGenerator(SystemCatalog::lanl(), cfg),
               hpcfail::InvalidArgument);

  ScenarioConfig cfg2 = lanl_scenario();
  cfg2.systems[0].early_burst_probability = 1.5;
  EXPECT_THROW(TraceGenerator(SystemCatalog::lanl(), cfg2),
               hpcfail::InvalidArgument);

  EXPECT_THROW(TraceGenerator(SystemCatalog::lanl(), ScenarioConfig{}),
               hpcfail::InvalidArgument);

  // Positive, but rejected by the gap samplers: the mean-1 lognormal's
  // mu = -sigma^2/2 overflows, the mean-1 Weibull's scale underflows to
  // zero, or the Weibull shape is infinite. generate() cannot run on any.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double sigma : {1e200, inf}) {
    ScenarioConfig c = lanl_scenario();
    c.systems[0].early_lognormal_sigma = sigma;
    EXPECT_THROW(TraceGenerator(SystemCatalog::lanl(), c),
                 hpcfail::InvalidArgument)
        << "sigma " << sigma;
  }
  for (const double shape : {1e-300, inf}) {
    ScenarioConfig c = lanl_scenario();
    c.systems[0].interarrival_weibull_shape = shape;
    EXPECT_THROW(TraceGenerator(SystemCatalog::lanl(), c),
                 hpcfail::InvalidArgument)
        << "shape " << shape;
  }
}

TEST(Generator, GenerateSystemRejectsUnconfiguredId) {
  ScenarioConfig cfg = lanl_scenario();
  cfg.systems.resize(3);  // systems 1-3 only
  const TraceGenerator gen(SystemCatalog::lanl(), cfg);
  EXPECT_THROW(gen.generate_system(20), hpcfail::InvalidArgument);
}

}  // namespace
}  // namespace hpcfail::synth
