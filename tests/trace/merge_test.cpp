// merge_sorted() against a stable sort of the concatenated parts, column
// by column. Each input is 1-6 parts, some of them empty, and repeats
// some (start, system, node) keys with other end, cause and workload
// values, so a merge that reorders ties shows. Three key ranges: one
// that packs into well under 64 bits, one that needs all 64 (ids 0,
// starts across the whole Seconds range), and one that does not pack
// (starts spread past 2^62), which takes the comparison sort.
#include "trace/merge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "trace/columns.hpp"

namespace hpcfail::trace {
namespace {

constexpr Seconds kFar = 9'000'000'000'000'000'000;

struct KeyRange {
  const char* name;
  Seconds start_lo;
  Seconds start_step;  ///< starts are start_lo + k * start_step, k < 64
  int systems;         ///< ids in [0, systems)
  int nodes;           ///< ids in [0, nodes)
  bool far_rows;       ///< add rows at +-9e18 (system 0, node 0)
};

FailureRecord random_record(Rng& rng, const KeyRange& range) {
  FailureRecord r;
  r.start = range.start_lo +
            static_cast<Seconds>(rng.uniform_index(64)) * range.start_step;
  r.system_id = static_cast<int>(
      rng.uniform_index(static_cast<std::uint64_t>(range.systems)));
  r.node_id = static_cast<int>(
      rng.uniform_index(static_cast<std::uint64_t>(range.nodes)));
  return r;
}

// The end, workload and cause a repeated key differs in.
void set_payload(Rng& rng, FailureRecord& r) {
  r.end = r.start + static_cast<Seconds>(rng.uniform_index(1000));
  r.workload = static_cast<Workload>(rng.uniform_index(3));
  r.detail = static_cast<DetailCause>(rng.uniform_index(16));
  r.cause = category_of(r.detail);
}

std::vector<ColumnStore> random_parts(Rng& rng, const KeyRange& range) {
  std::vector<ColumnStore> parts(1 + rng.uniform_index(6));
  std::vector<FailureRecord> emitted;
  for (ColumnStore& part : parts) {
    const std::size_t rows =
        rng.bernoulli(0.25) ? 0 : 1 + rng.uniform_index(200);
    for (std::size_t i = 0; i < rows; ++i) {
      FailureRecord r = !emitted.empty() && rng.bernoulli(0.3)
                            ? emitted[rng.uniform_index(emitted.size())]
                            : random_record(rng, range);
      set_payload(rng, r);
      part.push_back(r);
      emitted.push_back(r);
    }
  }
  if (range.far_rows) {
    for (const Seconds start : {kFar, -kFar, kFar, -kFar}) {
      FailureRecord r;
      r.start = start;
      set_payload(rng, r);
      parts[rng.uniform_index(parts.size())].push_back(r);
    }
  }
  return parts;
}

void expect_merge_is_stable_sort(const std::vector<ColumnStore>& parts) {
  std::vector<const ColumnStore*> inputs;
  std::vector<FailureRecord> all;
  for (const ColumnStore& p : parts) {
    inputs.push_back(&p);
    const std::vector<FailureRecord> rows = p.to_records();
    all.insert(all.end(), rows.begin(), rows.end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const FailureRecord& a, const FailureRecord& b) {
                     return std::tie(a.start, a.system_id, a.node_id) <
                            std::tie(b.start, b.system_id, b.node_id);
                   });
  const ColumnStore want = ColumnStore::from_records(all);
  const ColumnStore got = merge_sorted(inputs);
  EXPECT_EQ(got.system_id, want.system_id);
  EXPECT_EQ(got.node_id, want.node_id);
  EXPECT_EQ(got.start, want.start);
  EXPECT_EQ(got.end, want.end);
  EXPECT_EQ(got.workload, want.workload);
  EXPECT_EQ(got.cause, want.cause);
  EXPECT_EQ(got.detail, want.detail);
}

TEST(MergeSorted, EqualsAStableSortOfTheConcatenatedParts) {
  const KeyRange ranges[] = {
      {"packs", to_epoch(2000, 1, 1), 3600, 23, 1024, false},
      // ids 0: the key is the start offset alone, all 64 bits of it.
      {"packs_64_bits", -kFar, kFar / 64, 1, 1, true},
      {"does_not_pack", -(Seconds{1} << 62), Seconds{1} << 57, 23, 1024,
       true},
  };
  Rng rng(20260);
  for (const KeyRange& range : ranges) {
    SCOPED_TRACE(range.name);
    for (int trial = 0; trial < 200; ++trial) {
      SCOPED_TRACE("trial " + std::to_string(trial));
      expect_merge_is_stable_sort(random_parts(rng, range));
      if (HasFailure()) return;
    }
  }
}

TEST(MergeSorted, NoRowsGiveAnEmptyStore) {
  EXPECT_TRUE(merge_sorted({}).empty());
  const ColumnStore empty;
  EXPECT_TRUE(merge_sorted({&empty, &empty}).empty());
}

}  // namespace
}  // namespace hpcfail::trace
