#include "sim/calibrate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "common/error.hpp"
#include "sim/campaign.hpp"
#include "sim/policy.hpp"
#include "sim/scenario.hpp"
#include "synth/generator.hpp"
#include "trace/index.hpp"

namespace hpcfail::sim {
namespace {

using trace::FailureDataset;
using trace::SystemCatalog;

TEST(Calibrate, ProducesOneConfigPerNode) {
  const FailureDataset ds = synth::generate_lanl_trace(42);
  const auto& catalog = SystemCatalog::lanl();
  const auto nodes = calibrate_nodes(ds, catalog, 20);
  ASSERT_EQ(nodes.size(),
            static_cast<std::size_t>(catalog.system(20).nodes));
  for (const ClusterNodeConfig& n : nodes) {
    EXPECT_GT(n.mtbf_seconds, 0.0);
    EXPECT_GT(n.repair_median_seconds, 0.0);
    EXPECT_GT(n.repair_mean_seconds, n.repair_median_seconds);
  }
}

TEST(Calibrate, MtbfReflectsObservedCounts) {
  const FailureDataset ds = synth::generate_lanl_trace(42);
  const auto& catalog = SystemCatalog::lanl();
  const auto nodes = calibrate_nodes(ds, catalog, 20);
  const auto counts = ds.view().for_system(20).failures_per_node();
  const auto& sys = catalog.system(20);
  for (const auto& [node, count] : counts) {
    const auto& cat = sys.category_for_node(node);
    const double exposure =
        static_cast<double>(cat.production_end - cat.production_start);
    EXPECT_DOUBLE_EQ(
        nodes[static_cast<std::size_t>(node)].mtbf_seconds,
        exposure / static_cast<double>(count));
  }
  // Fig 3(a)'s hot graphics nodes (21-23) must come out less reliable
  // than the median compute node.
  std::vector<double> mtbfs;
  for (const ClusterNodeConfig& n : nodes) mtbfs.push_back(n.mtbf_seconds);
  std::nth_element(mtbfs.begin(), mtbfs.begin() + mtbfs.size() / 2,
                   mtbfs.end());
  const double median_mtbf = mtbfs[mtbfs.size() / 2];
  for (const int hot : {21, 22, 23}) {
    EXPECT_LT(nodes[static_cast<std::size_t>(hot)].mtbf_seconds,
              median_mtbf);
  }
}

TEST(Calibrate, CalibratedClusterSimulates) {
  // The whole point: calibrated configs feed straight into the simulator.
  const FailureDataset ds = synth::generate_lanl_trace(42);
  const auto nodes = calibrate_nodes(ds, SystemCatalog::lanl(), 20);
  CampaignScenario scenario;
  scenario.name = "system-20";
  scenario.node_count = nodes.size();
  scenario.horizon_seconds = std::numeric_limits<double>::infinity();
  scenario.faults = renewal_fault_model(nodes);
  scenario.job_width = 4;
  scenario.job_work_seconds = 6.0 * 3600.0;
  scenario.job_count = 50;
  CampaignSpec spec;
  spec.scenarios = {scenario};
  spec.policies = {no_protection_policy()};
  spec.runs_per_cell = 1;
  spec.seed = 7;
  const CampaignRunResult stats = Campaign(spec).execute_run(0, 0);
  EXPECT_GT(stats.makespan, 0.0);
  EXPECT_GT(stats.useful_work, 0.0);
}

TEST(Calibrate, ThrowsWhenSystemAbsent) {
  // System 1 exists in the catalog; an empty dataset has no records.
  EXPECT_THROW(
      calibrate_nodes(FailureDataset{}, SystemCatalog::lanl(), 1),
      InvalidArgument);
}

}  // namespace
}  // namespace hpcfail::sim
