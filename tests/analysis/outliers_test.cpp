#include "analysis/outliers.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "dist/poisson.hpp"
#include "synth/generator.hpp"

namespace hpcfail::analysis {
namespace {

using trace::DetailCause;
using trace::FailureDataset;
using trace::FailureRecord;
using trace::RootCause;
using trace::SystemCatalog;

FailureRecord rec(int system, int node, Seconds start) {
  FailureRecord r;
  r.system_id = system;
  r.node_id = node;
  r.start = start;
  r.end = start + 600;
  r.cause = RootCause::hardware;
  r.detail = DetailCause::cpu;
  return r;
}

TEST(NodeOutliers, FlagsAnObviousHotNode) {
  // System 12: 32 equal-exposure nodes. 31 nodes with 10 failures each,
  // one node with 100.
  std::vector<FailureRecord> records;
  const Seconds t0 = to_epoch(2004, 1, 1);
  Seconds t = t0;
  for (int node = 0; node < 32; ++node) {
    const int count = node == 5 ? 100 : 10;
    for (int i = 0; i < count; ++i) {
      records.push_back(rec(12, node, t += 997));
    }
  }
  const OutlierReport report = node_outlier_analysis(
      FailureDataset(std::move(records)), SystemCatalog::lanl(), 12);
  ASSERT_EQ(report.nodes.size(), 32u);
  EXPECT_EQ(report.nodes.front().node_id, 5);  // smallest p-value first
  EXPECT_TRUE(report.nodes.front().significant);
  EXPECT_EQ(report.significant_count, 1u);
  // Expected under the null: 410 failures over 32 equal nodes.
  EXPECT_NEAR(report.nodes.front().expected, 410.0 / 32.0, 1e-9);
}

TEST(NodeOutliers, NoFalsePositivesOnHomogeneousData) {
  // Every node Poisson with the same mean: nothing should be flagged at
  // Bonferroni-corrected alpha = 0.01.
  hpcfail::Rng rng(83);
  std::vector<FailureRecord> records;
  const Seconds t0 = to_epoch(2004, 1, 1);
  Seconds t = t0;
  for (int node = 0; node < 32; ++node) {
    // Poisson(40) counts drawn via the library's own sampler.
    const hpcfail::dist::Poisson p(40.0);
    const auto count = static_cast<int>(p.sample(rng));
    for (int i = 0; i < count; ++i) {
      records.push_back(rec(12, node, t += 311));
    }
  }
  const OutlierReport report = node_outlier_analysis(
      FailureDataset(std::move(records)), SystemCatalog::lanl(), 12);
  EXPECT_EQ(report.significant_count, 0u);
}

TEST(NodeOutliers, ExposureWeightingProtectsLateNodes) {
  // System 20's node 0 entered production 8+ years after the others; its
  // tiny exposure means even a handful of failures is *more* surprising
  // than the same count on a long-lived node, and conversely a long-lived
  // node needs far more failures to be flagged.
  const OutlierReport report = node_outlier_analysis(
      synth::generate_lanl_trace(42), SystemCatalog::lanl(), 20);
  double node0_expected = 0.0;
  double node5_expected = 0.0;
  for (const NodeOutlier& n : report.nodes) {
    if (n.node_id == 0) node0_expected = n.expected;
    if (n.node_id == 5) node5_expected = n.expected;
  }
  EXPECT_LT(node0_expected, node5_expected / 10.0);
}

TEST(NodeOutliers, GraphicsNodesOfSystem20AreSignificant) {
  // The Section 5.1 observation as a hypothesis test: nodes 21-23 carry
  // several times their fair share and must be flagged.
  const OutlierReport report = node_outlier_analysis(
      synth::generate_lanl_trace(42), SystemCatalog::lanl(), 20);
  int graphics_flagged = 0;
  for (const NodeOutlier& n : report.nodes) {
    if (n.workload == trace::Workload::graphics && n.significant) {
      ++graphics_flagged;
    }
  }
  EXPECT_EQ(graphics_flagged, 3);
  // And they rank at the very top.
  EXPECT_EQ(report.nodes[0].workload, trace::Workload::graphics);
}

TEST(NodeOutliers, SortedByPValue) {
  const OutlierReport report = node_outlier_analysis(
      synth::generate_lanl_trace(42), SystemCatalog::lanl(), 20);
  double prev = 0.0;
  for (const NodeOutlier& n : report.nodes) {
    EXPECT_GE(n.p_value, prev);
    prev = n.p_value;
  }
}

TEST(NodeOutliers, NodeWithTensOfThousandsOfFailures) {
  // System 22 is a single node, so its expected count equals its
  // observed count: the p-value is 1 - Q(a, a) at a = 10^4, where the
  // incomplete-gamma series needs ~900 terms (it used to stop at 500 and
  // throw NumericError).
  std::vector<FailureRecord> records;
  Seconds t = to_epoch(2005, 1, 1);
  for (int i = 0; i < 10000; ++i) records.push_back(rec(22, 0, t += 600));
  const OutlierReport report = node_outlier_analysis(
      FailureDataset(std::move(records)), SystemCatalog::lanl(), 22);
  ASSERT_EQ(report.nodes.size(), 1u);
  const NodeOutlier& node = report.nodes.front();
  EXPECT_EQ(node.failures, 10000u);
  EXPECT_DOUBLE_EQ(node.expected, 10000.0);
  // P(X >= a) for X ~ Poisson(a) is P(a, a) = 1/2 + 1/(3 sqrt(2 pi a))
  // + O(a^-3/2).
  constexpr double kPi = 3.14159265358979323846;
  EXPECT_NEAR(node.p_value,
              0.5 + 1.0 / (3.0 * std::sqrt(2.0 * kPi * 10000.0)), 1e-7);
  EXPECT_FALSE(node.significant);
}

TEST(NodeOutliers, ValidatesArguments) {
  const FailureDataset empty;
  EXPECT_THROW(
      node_outlier_analysis(empty, SystemCatalog::lanl(), 12),
      InvalidArgument);
  const FailureDataset ds({rec(12, 0, to_epoch(2004, 1, 1))});
  EXPECT_THROW(node_outlier_analysis(ds, SystemCatalog::lanl(), 12, 0.0),
               InvalidArgument);
  EXPECT_THROW(node_outlier_analysis(ds, SystemCatalog::lanl(), 12, 1.0),
               InvalidArgument);
}

}  // namespace
}  // namespace hpcfail::analysis
