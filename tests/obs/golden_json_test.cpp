// Golden snapshot of the JSON metrics export. The snapshot is built from
// a locally-instantiated Registry with hand-fixed values (no timers, no
// pipeline runs), so the rendered JSON is a pure function of this file
// and byte-exact across platforms — any diff is a real schema or
// formatting change and must be reviewed via HPCFAIL_UPDATE_GOLDENS=1.
#include <string>

#include <gtest/gtest.h>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "testkit/golden.hpp"

namespace {

std::string golden_path(const char* name) {
  return std::string(HPCFAIL_GOLDEN_DIR) + "/" + name;
}

hpcfail::obs::MetricsSnapshot fixed_snapshot() {
  hpcfail::obs::Registry reg;
  reg.counter("pipeline.records").add(15238);
  reg.counter("fit.failed_families").add(2);
  reg.gauge("fit.best_nll").set(10423.53125);
  reg.gauge("dataset.span_days").set(1825.0);
  auto& hist = reg.histogram("fit.seconds");
  hist.record(0.0625);
  hist.record(0.125);
  hist.record(0.125);
  hist.record(2.0);
  return reg.snapshot();
}

TEST(GoldenJson, MetricsExportMatchesSnapshot) {
  const std::string json = hpcfail::obs::to_json(fixed_snapshot());
  const auto result =
      hpcfail::testkit::golden_compare(golden_path("obs_metrics.json.golden"),
                                       json);
  EXPECT_TRUE(static_cast<bool>(result)) << result.message;
}

TEST(GoldenJson, ExportIsByteDeterministic) {
  EXPECT_EQ(hpcfail::obs::to_json(fixed_snapshot()),
            hpcfail::obs::to_json(fixed_snapshot()));
}

}  // namespace
