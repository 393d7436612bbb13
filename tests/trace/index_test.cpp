// DatasetIndex / DatasetView semantics, plus the contract every analyzer
// relies on: each view extraction is bit-identical to a brute-force
// reference implementation (testkit/reference.hpp), at any thread count.
#include "trace/index.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "synth/generator.hpp"
#include "testkit/reference.hpp"
#include "trace/dataset.hpp"

namespace hpcfail::trace {
namespace {

FailureRecord rec(int system, int node, Seconds start, Seconds duration) {
  FailureRecord r;
  r.system_id = system;
  r.node_id = node;
  r.start = start;
  r.end = start + duration;
  r.cause = RootCause::hardware;
  r.detail = DetailCause::memory_dimm;
  return r;
}

const Seconds t0 = to_epoch(2000, 1, 1);

FailureDataset small_dataset() {
  return FailureDataset({
      rec(1, 0, t0 + 5000, 600),
      rec(1, 0, t0 + 1000, 300),
      rec(1, 1, t0 + 3000, 1200),
      rec(2, 0, t0 + 2000, 60),
      rec(1, 0, t0 + 9000, 300),
  });
}

TEST(DatasetView, RootViewCoversEverything) {
  const FailureDataset ds = small_dataset();
  const DatasetView all = ds.view();
  EXPECT_EQ(all.size(), ds.size());
  EXPECT_FALSE(all.system().has_value());
  EXPECT_EQ(all.first_start(), ds.first_start());
  EXPECT_EQ(all.last_end(), ds.last_end());
}

TEST(DatasetView, ForSystemIsZeroCopy) {
  const FailureDataset ds = small_dataset();
  const DatasetView sys1 = ds.view().for_system(1);
  ASSERT_EQ(sys1.size(), 4u);
  EXPECT_EQ(sys1.system(), std::optional<int>(1));
  // The view points into index storage, not a fresh allocation: narrowing
  // again to the same system is the same column range.
  EXPECT_EQ(sys1.for_system(1).records().starts().data(),
            sys1.records().starts().data());
  // Narrowing to a different system yields the empty view.
  EXPECT_TRUE(sys1.for_system(2).empty());
  EXPECT_TRUE(ds.view().for_system(99).empty());
}

TEST(DatasetView, BetweenIsHalfOpenAndComposes) {
  const FailureDataset ds = small_dataset();
  const DatasetView window = ds.view().between(t0 + 1000, t0 + 5000);
  EXPECT_EQ(window.size(), 3u);  // 1000, 2000, 3000; excludes 5000

  // Composition commutes: window-then-system == system-then-window.
  const DatasetView a = ds.view().between(t0 + 1000, t0 + 5000).for_system(1);
  const DatasetView b = ds.view().for_system(1).between(t0 + 1000, t0 + 5000);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.records()[i], b.records()[i]);
  }
  // Window intersection, not replacement.
  EXPECT_EQ(
      ds.view().between(t0, t0 + 5000).between(t0 + 2000, t0 + 99999).size(),
      2u);  // 2000, 3000
  // Inverted and disjoint windows are empty, not errors.
  EXPECT_TRUE(ds.view().between(t0 + 5000, t0 + 1000).empty());
  EXPECT_TRUE(ds.view().between(t0 + 50000, t0 + 60000).empty());
}

TEST(DatasetView, ExtractionsMatchHandComputedValues) {
  const FailureDataset ds = small_dataset();
  const DatasetView sys1 = ds.view().for_system(1);

  const auto node0 = sys1.node_interarrivals(0);
  ASSERT_EQ(node0.size(), 2u);
  EXPECT_DOUBLE_EQ(node0[0], 4000.0);
  EXPECT_DOUBLE_EQ(node0[1], 4000.0);
  EXPECT_TRUE(sys1.node_interarrivals(99).empty());

  const auto gaps = sys1.system_interarrivals();
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_DOUBLE_EQ(gaps[0], 2000.0);
  EXPECT_DOUBLE_EQ(gaps[1], 2000.0);
  EXPECT_DOUBLE_EQ(gaps[2], 4000.0);

  const auto counts = sys1.failures_per_node();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts.at(0), 3u);
  EXPECT_EQ(counts.at(1), 1u);

  EXPECT_DOUBLE_EQ(sys1.total_downtime_minutes(), 5.0 + 20.0 + 10.0 + 5.0);
}

TEST(DatasetView, WindowedExtractionsRespectTheWindow) {
  const FailureDataset ds = small_dataset();
  const DatasetView windowed =
      ds.view().for_system(1).between(t0 + 1000, t0 + 6000);
  const auto node0 = windowed.node_interarrivals(0);
  ASSERT_EQ(node0.size(), 1u);  // 1000 -> 5000; 9000 is outside
  EXPECT_DOUBLE_EQ(node0[0], 4000.0);
  const auto counts = windowed.failures_per_node();
  EXPECT_EQ(counts.at(0), 2u);
  EXPECT_EQ(counts.at(1), 1u);
}

TEST(DatasetView, GroupedExtractorMatchesPerNodeCalls) {
  const FailureDataset ds = synth::generate_lanl_trace(42);
  const DatasetView sys20 = ds.view().for_system(20);
  const auto groups = sys20.node_interarrival_groups();
  ASSERT_FALSE(groups.empty());
  int prev_node = -1;
  for (const NodeInterarrivalGroup& g : groups) {
    EXPECT_GT(g.node_id, prev_node);  // ascending, no duplicates
    prev_node = g.node_id;
    EXPECT_EQ(g.gaps_seconds, sys20.node_interarrivals(g.node_id));
  }
  // min_gaps drops the sparse nodes but never alters surviving samples.
  const auto filtered = sys20.node_interarrival_groups(/*min_gaps=*/30);
  EXPECT_LT(filtered.size(), groups.size());
  for (const NodeInterarrivalGroup& g : filtered) {
    EXPECT_GE(g.gaps_seconds.size(), 30u);
    EXPECT_EQ(g.gaps_seconds, sys20.node_interarrivals(g.node_id));
  }
}

TEST(DatasetView, RequiresSystemScopeForNodeExtractions) {
  const FailureDataset ds = small_dataset();
  EXPECT_THROW(ds.view().node_interarrivals(0), InvalidArgument);
  EXPECT_THROW(ds.view().system_interarrivals(), InvalidArgument);
  EXPECT_THROW(ds.view().node_interarrival_groups(), InvalidArgument);
  EXPECT_THROW(ds.view().failures_per_node(), InvalidArgument);
}

TEST(DatasetView, MaterializeDeepCopies) {
  FailureDataset copy;
  {
    const FailureDataset ds = small_dataset();
    copy = ds.view().for_system(1).materialize();
  }  // the source is gone; the copy must be standalone
  ASSERT_EQ(copy.size(), 4u);
  EXPECT_EQ(copy.view().for_system(1).size(), 4u);
  EXPECT_EQ(copy.records()[0].start, t0 + 1000);
}

TEST(DatasetView, GapsWiderThanTheSignedRangeAreExact) {
  // A Lu log carries raw epoch seconds, so one node can fail at -9e18 and
  // at +9e18: a gap of 1.8e19 s, past the largest Seconds.
  constexpr Seconds kFar = 9'000'000'000'000'000'000;
  const FailureDataset ds({rec(1, 0, -kFar, 0), rec(1, 0, kFar, 0)});
  const DatasetView sys1 = ds.view().for_system(1);
  EXPECT_EQ(sys1.node_interarrivals(0), std::vector<double>{1.8e19});
  EXPECT_EQ(sys1.system_interarrivals(), std::vector<double>{1.8e19});
  const auto groups = sys1.node_interarrival_groups();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].gaps_seconds, std::vector<double>{1.8e19});
}

TEST(DatasetIndex, SystemIdsSortedUnique) {
  const FailureDataset ds = small_dataset();
  EXPECT_EQ(ds.index().system_ids(), (std::vector<int>{1, 2}));
  EXPECT_EQ(ds.system_ids(), ds.index().system_ids());
  EXPECT_EQ(ds.index().record_count(), 5u);
  EXPECT_TRUE(FailureDataset().system_ids().empty());
}

TEST(DatasetIndex, CopyAndMoveResetTheIndex) {
  FailureDataset ds = small_dataset();
  (void)ds.index();  // force the build
  FailureDataset copy = ds;
  EXPECT_EQ(copy.view().for_system(1).size(), 4u);
  FailureDataset moved = std::move(ds);
  EXPECT_EQ(moved.view().for_system(1).size(), 4u);
}

TEST(DatasetIndex, ViewHitsCountedWhenObsEnabledAfterIndexBuild) {
  // Regression: the view_hits counter used to be resolved only at index
  // build time, so enabling obs after the lazy build silently dropped
  // every hit.
  const FailureDataset ds = small_dataset();
  const bool was_enabled = obs::enabled();
  obs::disable();
  ds.view();  // builds the index with obs off
  obs::enable();
  const auto before = obs::registry().counter("dataset.view_hits").value();
  ds.view().for_system(1);
  EXPECT_GT(obs::registry().counter("dataset.view_hits").value(), before);
  if (!was_enabled) obs::disable();  // later tests in this process count
}

TEST(DatasetIndex, ViewsMatchBruteForceReferencesAtAnyThreadCount) {
  const FailureDataset ds = synth::generate_lanl_trace(42);
  // Brute-force references over the raw record span, computed once.
  const auto ref_sys = testkit::ref_for_system(ds.records(), 20);
  const auto ref_node_gaps =
      testkit::ref_node_interarrivals(ds.records(), 20, 22);
  const auto ref_sys_gaps = testkit::ref_system_interarrivals(ds.records(), 20);
  const auto ref_counts = testkit::ref_failures_per_node(ds.records(), 20);
  const auto ref_window = testkit::ref_between(
      ds.records(), to_epoch(2000, 1, 1), to_epoch(2003, 1, 1));

  for (const unsigned threads : {1u, 2u, 8u}) {
    hpcfail::set_parallelism(threads);
    // A fresh dataset per thread count so the index is rebuilt under the
    // configured parallelism.
    const FailureDataset fresh = synth::generate_lanl_trace(42);
    const DatasetView sys20 = fresh.view().for_system(20);
    ASSERT_EQ(sys20.size(), ref_sys.size()) << threads << " threads";
    for (std::size_t i = 0; i < sys20.size(); ++i) {
      ASSERT_EQ(sys20.records()[i], ref_sys[i]);
    }
    EXPECT_EQ(sys20.node_interarrivals(22), ref_node_gaps);
    EXPECT_EQ(sys20.system_interarrivals(), ref_sys_gaps);
    EXPECT_EQ(sys20.failures_per_node(), ref_counts);
    const DatasetView window =
        fresh.view().between(to_epoch(2000, 1, 1), to_epoch(2003, 1, 1));
    ASSERT_EQ(window.size(), ref_window.size());
    for (std::size_t i = 0; i < window.size(); ++i) {
      ASSERT_EQ(window.records()[i], ref_window[i]);
    }
  }
  hpcfail::set_parallelism(0);
}

TEST(DatasetIndex, EveryViewAndPostingListMatchesBruteForceOnSparseIds) {
  // Sparse system and node ids up to INT_MAX, so the radix sorts behind
  // the partition and the posting lists run several passes, and many
  // records share a start, so their order rests on the sorts' stability.
  constexpr int kSystems[] = {1, 7, 2147483647};
  constexpr int kSmallNodes[] = {0, 1, 2, 4095, 4096, 65535};
  constexpr int kLargeNodes[] = {99991, 1 << 24, 2147483646, 2147483647};
  Rng rng(20);
  std::vector<FailureRecord> records;
  for (int i = 0; i < 6000; ++i) {
    const int system = kSystems[rng.next_u64() % 3];
    const std::uint64_t pick = rng.next_u64() % 10;
    const int node = pick < 6 ? kSmallNodes[pick] : kLargeNodes[pick - 6];
    const auto start = t0 + static_cast<Seconds>(rng.next_u64() % 500);
    const auto duration = static_cast<Seconds>(rng.next_u64() % 900);
    records.push_back(rec(system, node, start, duration));
  }

  for (const unsigned threads : {1u, 2u, 8u}) {
    hpcfail::set_parallelism(threads);
    const FailureDataset ds(records);
    const ColumnsView all = ds.records();
    EXPECT_EQ(ds.system_ids(), (std::vector<int>{1, 7, 2147483647}));
    for (const int system : kSystems) {
      // The system's records and each node's starts, in dataset order.
      std::vector<FailureRecord> want;
      std::map<int, std::vector<Seconds>> want_starts;
      for (std::size_t i = 0; i < all.size(); ++i) {
        if (all[i].system_id != system) continue;
        want.push_back(all[i]);
        want_starts[all[i].node_id].push_back(all[i].start);
      }
      const DatasetView view = ds.view().for_system(system);
      ASSERT_EQ(view.size(), want.size()) << threads << " threads";
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(view.records()[i], want[i])
            << "system " << system << " row " << i << ", " << threads
            << " threads";
      }
      const std::vector<NodeStarts> nodes = view.node_starts();
      ASSERT_EQ(nodes.size(), want_starts.size());
      auto expected = want_starts.begin();
      for (const NodeStarts& node : nodes) {
        EXPECT_EQ(node.node_id, expected->first);
        const std::vector<Seconds> got(node.starts.begin(), node.starts.end());
        EXPECT_EQ(got, expected->second)
            << "system " << system << " node " << node.node_id << ", "
            << threads << " threads";
        ++expected;
      }
    }
  }
  hpcfail::set_parallelism(0);
}

}  // namespace
}  // namespace hpcfail::trace
