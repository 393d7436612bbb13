#include "trace/ingest.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "dist/suffstats.hpp"
#include "obs/metrics.hpp"
#include "trace/dataset.hpp"
#include "trace/index.hpp"
#include "trace/source.hpp"

namespace hpcfail::trace {
namespace {

FailureRecord rec(int system, int node, Seconds start, Seconds duration,
                  RootCause cause = RootCause::hardware,
                  DetailCause detail = DetailCause::memory_dimm) {
  FailureRecord r;
  r.system_id = system;
  r.node_id = node;
  r.start = start;
  r.end = start + duration;
  r.cause = cause;
  r.detail = detail;
  return r;
}

const Seconds t0 = to_epoch(2000, 1, 1);

/// Random records with unique (start, system, node) sort keys, so the
/// reference sort order is unambiguous and bit-identity is well-defined.
std::vector<FailureRecord> random_records(std::size_t n,
                                          std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> system(1, 4);
  std::uniform_int_distribution<int> node(0, 7);
  std::uniform_int_distribution<Seconds> jitter(1, 1000);
  std::set<std::tuple<Seconds, int, int>> used;
  std::vector<FailureRecord> out;
  Seconds at = t0;
  while (out.size() < n) {
    at += jitter(rng);
    const FailureRecord r = rec(system(rng), node(rng), at, 60);
    if (used.emplace(r.start, r.system_id, r.node_id).second) {
      out.push_back(r);
    }
  }
  // Appends arrive roughly-but-not-exactly in time order; shuffle within
  // small windows to exercise the merge's out-of-order handling.
  std::uniform_int_distribution<std::size_t> swap_gap(1, 5);
  for (std::size_t i = 0; i + 5 < out.size(); ++i) {
    std::swap(out[i], out[i + swap_gap(rng)]);
  }
  return out;
}

void expect_bit_identical(const FailureDataset& got,
                          const FailureDataset& want) {
  ASSERT_EQ(got.size(), want.size());
  const ColumnsView g = got.records();
  const ColumnsView w = want.records();
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(g.starts()[i], w.starts()[i]) << "row " << i;
    ASSERT_EQ(g.ends()[i], w.ends()[i]) << "row " << i;
    ASSERT_EQ(g.system_ids()[i], w.system_ids()[i]) << "row " << i;
    ASSERT_EQ(g.node_ids()[i], w.node_ids()[i]) << "row " << i;
    ASSERT_EQ(g.workloads()[i], w.workloads()[i]) << "row " << i;
    ASSERT_EQ(g.causes()[i], w.causes()[i]) << "row " << i;
    ASSERT_EQ(g.details()[i], w.details()[i]) << "row " << i;
  }
}

TEST(LiveDataset, StartsEmptyWithValidSnapshot) {
  LiveDataset live;
  ASSERT_NE(live.snapshot(), nullptr);
  EXPECT_EQ(live.snapshot()->size(), 0u);
  EXPECT_EQ(live.epoch(), 0u);
  live.seal();  // no-op on empty tail
  EXPECT_EQ(live.epoch(), 0u);
}

TEST(LiveDataset, SnapshotExcludesTailUntilSeal) {
  LiveDataset live;
  live.append(rec(1, 0, t0, 60));
  EXPECT_EQ(live.tail_size(), 1u);
  EXPECT_EQ(live.snapshot()->size(), 0u);
  live.seal();
  EXPECT_EQ(live.tail_size(), 0u);
  EXPECT_EQ(live.sealed_size(), 1u);
  EXPECT_EQ(live.snapshot()->size(), 1u);
  EXPECT_EQ(live.epoch(), 1u);
}

TEST(LiveDataset, RejectsInconsistentAppend) {
  LiveDataset live;
  FailureRecord bad = rec(1, 0, t0, 60);
  bad.end = bad.start - 1;
  EXPECT_THROW(live.append(bad), InvalidArgument);
  FailureRecord mismatch = rec(1, 0, t0, 60);
  mismatch.detail = DetailCause::scheduler;  // software detail, hw cause
  EXPECT_THROW(live.append(mismatch), InvalidArgument);
  EXPECT_EQ(live.size(), 0u);
}

TEST(LiveDataset, EpochPolicyTriggersGeometricSeals) {
  LiveDataset::Options opts;
  opts.min_rebuild_tail = 16;
  opts.rebuild_fraction = 0.5;
  LiveDataset live(opts);
  const std::vector<FailureRecord> records = random_records(200, 11);
  std::uint64_t seals_seen = 0;
  for (const FailureRecord& r : records) {
    live.append(r);
    seals_seen = std::max<std::uint64_t>(seals_seen, live.epoch());
    // The tail can never exceed the threshold in effect when it sealed.
    EXPECT_LE(live.tail_size(),
              std::max<std::size_t>(opts.min_rebuild_tail,
                                    static_cast<std::size_t>(
                                        opts.rebuild_fraction *
                                        static_cast<double>(
                                            live.sealed_size()))));
  }
  EXPECT_GE(seals_seen, 2u);   // policy actually fired
  EXPECT_LE(seals_seen, 20u);  // and amortized: far fewer seals than appends
}

TEST(LiveDataset, IncrementalEqualsFromScratchAcrossThreadCounts) {
  const std::vector<FailureRecord> records = random_records(3000, 23);
  const FailureDataset reference{std::vector<FailureRecord>(records)};

  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    set_parallelism(threads);
    LiveDataset::Options opts;
    opts.min_rebuild_tail = 64;  // force many epochs over 3000 appends
    LiveDataset live(opts);
    std::mt19937 rng(threads);
    std::uniform_int_distribution<int> coin(0, 99);
    for (const FailureRecord& r : records) {
      live.append(r);
      if (coin(rng) == 0) live.seal();  // random mid-stream seals
    }
    live.seal();
    EXPECT_GT(live.epoch(), 4u);
    expect_bit_identical(*live.snapshot(), reference);

    // The incrementally-maintained index answers like the batch one.
    const DatasetView all = live.snapshot()->index().all();
    EXPECT_EQ(all.size(), reference.size());
    EXPECT_EQ(live.snapshot()->index().system_ids(),
              reference.index().system_ids());
  }
  set_parallelism(0);  // restore the default for other tests
}

TEST(LiveDataset, SeededFromExistingDataset) {
  const std::vector<FailureRecord> records = random_records(300, 31);
  std::vector<FailureRecord> head(records.begin(), records.begin() + 200);
  LiveDataset live{FailureDataset(std::move(head))};
  EXPECT_EQ(live.sealed_size(), 200u);
  for (std::size_t i = 200; i < records.size(); ++i) {
    live.append(records[i]);
  }
  live.seal();
  expect_bit_identical(*live.snapshot(),
                       FailureDataset{std::vector<FailureRecord>(records)});
}

/// Checks one node's posting list in a sealed snapshot's index against
/// the node's ascending start times.
void expect_node_posting_list(const DatasetView& system_view, int node,
                              const std::vector<Seconds>& want) {
  const std::map<int, std::size_t> counts = system_view.failures_per_node();
  const auto it = counts.find(node);
  if (want.empty()) {
    EXPECT_EQ(it, counts.end());
    return;
  }
  ASSERT_NE(it, counts.end());
  EXPECT_EQ(it->second, want.size());
  const std::vector<double> gaps = system_view.node_interarrivals(node);
  ASSERT_EQ(gaps.size(), want.size() - 1);
  for (std::size_t i = 0; i + 1 < want.size(); ++i) {
    EXPECT_EQ(gaps[i], static_cast<double>(want[i + 1] - want[i]));
  }
}

/// Each node's start times in `records`, ascending.
std::map<std::pair<int, int>, std::vector<Seconds>> starts_by_node(
    std::vector<FailureRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const FailureRecord& a, const FailureRecord& b) {
              return a.start < b.start;
            });
  std::map<std::pair<int, int>, std::vector<Seconds>> starts;
  for (const FailureRecord& r : records) {
    starts[{r.system_id, r.node_id}].push_back(r.start);
  }
  return starts;
}

TEST(LiveDataset, LivePostingListsMatchSealedDataset) {
  const std::vector<FailureRecord> records = random_records(500, 47);
  LiveDataset::Options opts;
  opts.min_rebuild_tail = 64;
  LiveDataset live(opts);
  for (const FailureRecord& r : records) live.append(r);
  // Per-node posting lists live in the sealed snapshot's index; the
  // final seal folds the tail into it.
  live.seal();
  const DatasetView all = live.snapshot()->view();
  auto want = starts_by_node(records);
  for (int system = 1; system <= 4; ++system) {
    for (int node = 0; node <= 7; ++node) {
      expect_node_posting_list(all.for_system(system), node,
                               want[{system, node}]);
    }
  }
}

TEST(LiveDataset, OldSnapshotsSurviveLaterSeals) {
  LiveDataset live;
  live.append(rec(1, 0, t0, 60));
  live.seal();
  const std::shared_ptr<const FailureDataset> old = live.snapshot();
  live.append(rec(1, 0, t0 + 100, 60));
  live.seal();
  EXPECT_EQ(old->size(), 1u);  // immutable: unaffected by the new epoch
  EXPECT_EQ(live.snapshot()->size(), 2u);
  EXPECT_NE(old.get(), live.snapshot().get());
}

// No live reader queries a snapshot's index, so neither seeding nor a
// seal builds one; the first view() of a snapshot does, once.
TEST(LiveDataset, SealsBuildNoIndexUntilASnapshotIsQueried) {
  const bool was_enabled = obs::enabled();
  obs::enable();
  const obs::Histogram& builds =
      obs::registry().histogram("trace.index.seconds");
  const std::uint64_t before = builds.count();

  const std::vector<FailureRecord> records = random_records(600, 89);
  std::vector<FailureRecord> head(records.begin(), records.begin() + 200);
  LiveDataset live{FailureDataset(std::move(head))};
  for (std::size_t i = 200; i < records.size(); ++i) {
    live.append(records[i]);
    if (i % 100 == 99) live.seal();
  }
  EXPECT_EQ(live.epoch(), 4u);
  EXPECT_EQ(builds.count(), before);

  const std::shared_ptr<const FailureDataset> snap = live.snapshot();
  EXPECT_EQ(snap->view().size(), records.size());
  EXPECT_EQ(builds.count(), before + 1);
  EXPECT_EQ(snap->view().size(), records.size());  // built once per snapshot
  EXPECT_EQ(builds.count(), before + 1);
  obs::set_enabled(was_enabled);
}

// Regression for the index.hpp lifetime contract: a FailureDataset with a
// built index must stay usable after being moved (the index is dropped
// under the mutex and lazily rebuilt over the new storage — stale views
// into the moved-from buffer must never survive).
TEST(LiveDataset, AppendThenMoveRebuildsIndexOverNewStorage) {
  const std::vector<FailureRecord> records = random_records(400, 53);
  FailureDataset ds{std::vector<FailureRecord>(records)};
  const std::vector<int> systems_before = ds.index().system_ids();

  FailureDataset moved(std::move(ds));  // move with a built index
  const std::vector<int> systems_after = moved.index().system_ids();
  EXPECT_EQ(systems_after, systems_before);
  EXPECT_EQ(moved.index().all().size(), records.size());

  // Same through the streaming path: seed, append, seal, and query the
  // new epoch's index (built on first use).
  LiveDataset live(std::move(moved));
  live.append(rec(9, 0, t0 - 100, 60));
  live.seal();
  const std::shared_ptr<const FailureDataset> snap = live.snapshot();
  EXPECT_EQ(snap->index().all().size(), records.size() + 1);
  const std::vector<int> systems_live = snap->index().system_ids();
  EXPECT_NE(std::find(systems_live.begin(), systems_live.end(), 9),
            systems_live.end());
}

// --- Sharded ingest -------------------------------------------------------

std::size_t shard_of(const FailureRecord& r, std::size_t shards) {
  return (static_cast<std::size_t>(r.system_id) * 8191u +
          static_cast<std::size_t>(r.node_id)) %
         shards;
}

// The tentpole determinism contract: the sealed snapshot is
// bit-identical to a from-scratch stable sort at ANY shard count, with
// seals firing at arbitrary points mid-stream.
TEST(LiveDataset, ShardedSealsAreBitIdenticalAtAnyShardCount) {
  const std::vector<FailureRecord> records = random_records(3000, 67);
  const FailureDataset reference{std::vector<FailureRecord>(records)};

  for (const std::size_t shards : {1u, 2u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    LiveDataset::Options opts;
    opts.min_rebuild_tail = 64;
    opts.shards = shards;
    LiveDataset live(opts);
    ASSERT_EQ(live.shards(), shards);
    std::mt19937 rng(static_cast<std::uint32_t>(shards));
    std::uniform_int_distribution<int> coin(0, 99);
    for (const FailureRecord& r : records) {
      live.append(shard_of(r, shards), r);
      if (coin(rng) == 0) live.seal();
    }
    live.seal();
    EXPECT_GT(live.epoch(), 4u);
    expect_bit_identical(*live.snapshot(), reference);
  }
}

TEST(LiveDataset, ConcurrentShardAppendsProduceTheReferenceDataset) {
  const std::vector<FailureRecord> records = random_records(4000, 71);
  const FailureDataset reference{std::vector<FailureRecord>(records)};
  constexpr std::size_t kShards = 4;

  LiveDataset::Options opts;
  opts.min_rebuild_tail = 256;  // several seals race with the appenders
  opts.shards = kShards;
  LiveDataset live(opts);
  std::vector<std::thread> writers;
  for (std::size_t s = 0; s < kShards; ++s) {
    writers.emplace_back([&live, &records, s] {
      for (const FailureRecord& r : records) {
        if (shard_of(r, kShards) == s) live.append(s, r);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  live.seal();
  EXPECT_EQ(live.size(), records.size());
  expect_bit_identical(*live.snapshot(), reference);
}

TEST(LiveDataset, ShardedPostingListsMergeAcrossShards) {
  const std::vector<FailureRecord> records = random_records(600, 73);
  LiveDataset::Options opts;
  opts.shards = 3;
  opts.min_rebuild_tail = 100;
  LiveDataset live(opts);
  std::size_t rr = 0;  // round-robin: one node's events span all shards
  for (const FailureRecord& r : records) live.append(rr++ % 3, r);
  live.seal();

  const DatasetView all = live.snapshot()->view();
  auto want = starts_by_node(records);
  for (int system = 1; system <= 4; ++system) {
    for (int node = 0; node <= 7; ++node) {
      expect_node_posting_list(all.for_system(system), node,
                               want[{system, node}]);
    }
  }
}

TEST(LiveDataset, RejectsOutOfRangeShard) {
  LiveDataset::Options opts;
  opts.shards = 2;
  LiveDataset live(opts);
  EXPECT_THROW(live.append(2, rec(1, 0, t0, 60)), Error);
}

// --- Retention / compaction -----------------------------------------------

TEST(LiveDataset, TimeRetentionCompactsOldEventsExactlyAtTheHorizon) {
  LiveDataset::Options opts;
  opts.retain_seconds = 1000;
  LiveDataset live(opts);
  // Starts 0,100,...,2400 past t0; the last start defines the horizon at
  // t0 + 2400 - 1000 = t0 + 1400: rows with start < horizon compact.
  for (int i = 0; i <= 24; ++i) {
    live.append(rec(1, i % 4, t0 + 100 * i, 60));
  }
  live.seal();
  EXPECT_EQ(live.retention_horizon(), t0 + 1400);
  EXPECT_EQ(live.compacted_events(), 14u);
  EXPECT_EQ(live.sealed_size(), 11u);
  // sealed + tails + compacted always accounts for every append.
  EXPECT_EQ(live.size() + live.compacted_events(), 25u);
  const ColumnsView rows = live.snapshot()->records();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_GE(rows.starts()[i], t0 + 1400);
  }
}

TEST(LiveDataset, CountRetentionRoundsDownToAStartBoundary) {
  LiveDataset::Options opts;
  opts.max_sealed_events = 9;
  LiveDataset live(opts);
  // Three events share start t0+500; a naive count cut would split them.
  for (int i = 0; i < 5; ++i) live.append(rec(1, i, t0 + 100 * i, 60));
  for (int i = 0; i < 3; ++i) live.append(rec(2, i, t0 + 500, 60));
  for (int i = 0; i < 7; ++i) live.append(rec(3, i, t0 + 600 + 10 * i, 60));
  live.seal();
  // 15 events, cap 9 -> the raw count cut would land mid-way through the
  // t0+500 run (row 6); rounding down to the start boundary keeps all
  // three t0+500 rows, so 10 survive (one over the approximate cap) and
  // the dropped set is exactly {start < t0+500}.
  EXPECT_EQ(live.compacted_events(), 5u);
  EXPECT_EQ(live.sealed_size(), 10u);
  EXPECT_EQ(live.retention_horizon(), t0 + 500);
}

/// random_records with varied repair lengths and causes, in
/// (start, system, node) order.
std::vector<FailureRecord> varied_sorted_records(std::size_t n,
                                                 std::uint32_t seed) {
  std::vector<FailureRecord> out = random_records(n, seed);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].detail =
        static_cast<DetailCause>((i * 7) % kDetailCauseNames.size());
    out[i].cause = category_of(out[i].detail);
    out[i].end = out[i].start + 60 + static_cast<Seconds>((i * 977) % 86'400);
  }
  std::sort(out.begin(), out.end(),
            [](const FailureRecord& a, const FailureRecord& b) {
              return std::tie(a.start, a.system_id, a.node_id) <
                     std::tie(b.start, b.system_id, b.node_id);
            });
  return out;
}

// The ledger keeps one cell per (system, cause), each folded in the
// global (start, system, node) order of the rows it dropped. Arrivals
// come in that order, so each seal drops rows after the previous seal's
// and a single fold of all dropped rows is the reference.
TEST(LiveDataset, CompactionLedgerMatchesBruteForce) {
  const std::vector<FailureRecord> records = varied_sorted_records(2000, 83);
  for (const std::size_t shards : {1u, 2u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    LiveDataset::Options opts;
    opts.min_rebuild_tail = 128;
    opts.shards = shards;
    opts.max_sealed_events = 500;
    LiveDataset live(opts);
    for (const FailureRecord& r : records) live.append(shard_of(r, shards), r);
    live.seal();

    ASSERT_GT(live.compacted_events(), 0u);
    EXPECT_EQ(live.size() + live.compacted_events(), records.size());
    const Seconds horizon = live.retention_horizon();

    std::map<std::pair<int, RootCause>, dist::SuffStats> want;
    std::uint64_t dropped = 0;
    for (const FailureRecord& r : records) {
      if (r.start >= horizon) break;
      want[{r.system_id, r.cause}].add(r.downtime_minutes());
      ++dropped;
    }
    EXPECT_EQ(live.compacted_events(), dropped);

    const std::vector<CompactionCell> cells = live.compaction_cells();
    ASSERT_EQ(cells.size(), want.size());
    auto it = want.begin();
    for (const CompactionCell& cell : cells) {
      EXPECT_EQ(cell.system_id, it->first.first);
      EXPECT_EQ(cell.cause, it->first.second);
      const dist::SuffStats& got = cell.repair_minutes;
      const dist::SuffStats& ref = it->second;
      EXPECT_EQ(got.n, ref.n);
      EXPECT_EQ(got.floor_at, ref.floor_at);
      EXPECT_EQ(got.sum_raw, ref.sum_raw);
      EXPECT_EQ(got.shift, ref.shift);
      EXPECT_EQ(got.mean_dev, ref.mean_dev);
      EXPECT_EQ(got.m2, ref.m2);
      EXPECT_EQ(got.log_shift, ref.log_shift);
      EXPECT_EQ(got.log_mean_dev, ref.log_mean_dev);
      EXPECT_EQ(got.log_m2, ref.log_m2);
      EXPECT_EQ(got.min, ref.min);
      EXPECT_EQ(got.max, ref.max);
      ++it;
    }
  }
}

TEST(LiveDataset, LateArrivalBelowHorizonCompactsAndNeverResurrects) {
  LiveDataset::Options opts;
  opts.retain_seconds = 1000;
  LiveDataset live(opts);
  for (int i = 0; i <= 20; ++i) live.append(rec(1, 0, t0 + 100 * i, 60));
  live.seal();
  const Seconds horizon = live.retention_horizon();
  ASSERT_EQ(horizon, t0 + 1000);
  const std::uint64_t compacted_before = live.compacted_events();

  // A straggler far below the horizon: accepted into the tail, then
  // folded into the ledger at the next seal — never into the raw store.
  live.append(rec(1, 0, t0 + 50, 60));
  live.seal();
  EXPECT_EQ(live.compacted_events(), compacted_before + 1);
  const ColumnsView rows = live.snapshot()->records();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_GE(rows.starts()[i], horizon);
  }
}

TEST(LiveDataset, CountRetentionPeakStaysWithinTheRebuildAllowance) {
  // Between seals the tail grows to rebuild_fraction x sealed before the
  // next seal trims the store back to the cap, so live events never
  // exceed (1 + rebuild_fraction) x cap. Sampled after every append.
  constexpr std::uint64_t kEvents = 500'000;
  constexpr std::size_t kCap = 100'000;
  LiveDataset::Options opts;
  opts.max_sealed_events = kCap;
  LiveDataset live(opts);
  const double allowance = 1 + opts.rebuild_fraction;
  const auto bound = static_cast<std::size_t>(allowance * kCap);
  Rng rng(4242);
  Seconds at = t0;
  std::size_t peak = 0;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    at += 1 + static_cast<Seconds>(rng.uniform_index(30));
    const int system = 1 + static_cast<int>(rng.uniform_index(8));
    const int node = static_cast<int>(rng.uniform_index(128));
    const Seconds repair = 60 + static_cast<Seconds>(rng.uniform_index(7200));
    live.append(rec(system, node, at, repair));
    peak = std::max(peak, live.size());
  }
  EXPECT_LE(peak, bound);
  EXPECT_GT(live.compacted_events(), 0u);
  EXPECT_EQ(live.sealed_size() + live.tail_size() + live.compacted_events(),
            kEvents);
}

TEST(LiveDataset, RetentionNeverEmptiesTheStore) {
  LiveDataset::Options opts;
  opts.retain_seconds = 10;  // far smaller than the event spacing
  LiveDataset live(opts);
  for (int i = 0; i < 5; ++i) {
    live.append(rec(1, 0, t0 + 10000 * i, 60));
    live.seal();
  }
  // The newest event always survives (the horizon hangs off its start).
  EXPECT_GE(live.sealed_size(), 1u);
  EXPECT_EQ(live.snapshot()->records().starts().back(), t0 + 40000);
  EXPECT_EQ(live.compacted_events() + live.size(), 5u);
}

// An hour before a start this close to the lowest Seconds lies below it;
// the horizon saturates there, so the seal compacts nothing.
TEST(LiveDataset, HorizonBelowTheLowestSecondsCompactsNothing) {
  LiveDataset::Options opts;
  opts.retain_seconds = 3600;
  LiveDataset live(opts);
  live.append(rec(1, 0, Seconds{-9223372036854775000}, 60));
  live.seal();
  EXPECT_EQ(live.compacted_events(), 0u);
  EXPECT_EQ(live.sealed_size(), 1u);
}

}  // namespace
}  // namespace hpcfail::trace
