// ColumnStore / ColumnsView unit tests: the SoA storage must be a
// faithful row store (AoS round trips are identity), and
// FailureDataset::from_columns must accept sorted columns as-is, sort
// unsorted ones to the exact order a stable sort of the records
// produces, and reject inconsistent rows with the same diagnostics.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "trace/columns.hpp"
#include "trace/dataset.hpp"

namespace {

using hpcfail::Rng;
using hpcfail::trace::ColumnStore;
using hpcfail::trace::ColumnsView;
using hpcfail::trace::DetailCause;
using hpcfail::trace::FailureDataset;
using hpcfail::trace::FailureRecord;
using hpcfail::trace::RootCause;
using hpcfail::trace::Workload;

FailureRecord make_record(int system, int node, hpcfail::Seconds start,
                          hpcfail::Seconds duration) {
  FailureRecord r;
  r.system_id = system;
  r.node_id = node;
  r.start = start;
  r.end = start + duration;
  r.workload = Workload::compute;
  r.cause = RootCause::hardware;
  r.detail = DetailCause::memory_dimm;
  return r;
}

std::vector<FailureRecord> random_records(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<FailureRecord> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(make_record(
        1 + static_cast<int>(rng.uniform_index(4)),
        static_cast<int>(rng.uniform_index(64)),
        static_cast<hpcfail::Seconds>(rng.uniform_index(1'000'000)),
        60 + static_cast<hpcfail::Seconds>(rng.uniform_index(86'400))));
  }
  return out;
}

TEST(ColumnStore, PushBackAndRowRoundTrip) {
  ColumnStore cols;
  const auto records = random_records(100, 11);
  for (const FailureRecord& r : records) cols.push_back(r);
  ASSERT_EQ(cols.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(cols.row(i), records[i]) << "row " << i;
  }
}

TEST(ColumnStore, FromRecordsToRecordsIsIdentity) {
  const auto records = random_records(257, 12);
  const ColumnStore cols = ColumnStore::from_records(records);
  EXPECT_EQ(cols.to_records(), records);
  // Partial reconstitution slices the same rows.
  const auto middle = cols.to_records(50, 20);
  ASSERT_EQ(middle.size(), 20u);
  for (std::size_t i = 0; i < middle.size(); ++i) {
    EXPECT_EQ(middle[i], records[50 + i]);
  }
}

TEST(ColumnStore, ForEachColumnListsEveryMemberOnce) {
  // Every member is a std::vector of the same size, so the list names all
  // of them exactly when its distinct members fill the struct.
  const ColumnStore cols;
  const auto* const base = reinterpret_cast<const char*>(&cols);
  std::set<std::ptrdiff_t> offsets;
  std::size_t visits = 0;
  ColumnStore::for_each_column([&](auto column, auto) {
    offsets.insert(reinterpret_cast<const char*>(&(cols.*column)) - base);
    ++visits;
  });
  EXPECT_EQ(visits, offsets.size());
  EXPECT_EQ(offsets.size() * sizeof(std::vector<int>), sizeof(ColumnStore));
}

TEST(ColumnStore, SetRowWritesEachFieldToItsColumn) {
  // Fields differ from their defaults and, where types are shared, from
  // each other, so a column bound to another column's field shows.
  FailureRecord r;
  r.system_id = 3;
  r.node_id = 5;
  r.start = 1'000;
  r.end = 2'000;
  r.workload = Workload::graphics;
  r.cause = RootCause::hardware;
  r.detail = DetailCause::memory_dimm;
  ColumnStore cols;
  cols.resize(1);
  cols.set_row(0, r);
  EXPECT_EQ(cols.system_id[0], r.system_id);
  EXPECT_EQ(cols.node_id[0], r.node_id);
  EXPECT_EQ(cols.start[0], r.start);
  EXPECT_EQ(cols.end[0], r.end);
  EXPECT_EQ(cols.workload[0], r.workload);
  EXPECT_EQ(cols.cause[0], r.cause);
  EXPECT_EQ(cols.detail[0], r.detail);
  EXPECT_EQ(cols.row(0), r);
}

TEST(ColumnStore, ResizeClearAndBytes) {
  ColumnStore cols;
  EXPECT_TRUE(cols.empty());
  cols.resize(50);
  EXPECT_EQ(cols.size(), 50u);
  const std::size_t bytes_at_50 = cols.bytes();
  // Seven columns: 2 ints + 2 Seconds + 3 one-byte categoricals.
  EXPECT_GE(bytes_at_50, 50 * (2 * sizeof(int) +
                               2 * sizeof(hpcfail::Seconds) + 3));
  cols.clear();
  EXPECT_TRUE(cols.empty());
  cols.reserve(1000);
  EXPECT_GE(cols.bytes(), bytes_at_50);  // capacity, not size
}

TEST(ColumnsView, SpansIteratorAndSubviewAgree) {
  const auto records = random_records(64, 14);
  const ColumnStore cols = ColumnStore::from_records(records);
  const ColumnsView view(cols);
  ASSERT_EQ(view.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(view[i], records[i]);
    EXPECT_EQ(view.starts()[i], records[i].start);
    EXPECT_EQ(view.ends()[i], records[i].end);
    EXPECT_EQ(view.causes()[i], records[i].cause);
  }
  // Range-for assembles the same values the spans expose.
  std::size_t i = 0;
  for (const FailureRecord& r : view) {
    EXPECT_EQ(r, records[i]);
    ++i;
  }
  EXPECT_EQ(i, records.size());

  const ColumnsView sub = view.subview(10, 5);
  ASSERT_EQ(sub.size(), 5u);
  EXPECT_EQ(sub.front(), records[10]);
  EXPECT_EQ(sub.back(), records[14]);
  EXPECT_EQ(sub.starts().size(), 5u);
  EXPECT_EQ(sub.starts()[0], records[10].start);

  // The iterator is random-access (std::sort-compatible distance math).
  static_assert(std::random_access_iterator<ColumnsView::iterator>);
  EXPECT_EQ(view.end() - view.begin(),
            static_cast<std::ptrdiff_t>(records.size()));
}

TEST(ColumnsView, EmptyViewYieldsEmptySpans) {
  const ColumnsView view;
  EXPECT_TRUE(view.empty());
  EXPECT_TRUE(view.starts().empty());
  EXPECT_TRUE(view.causes().empty());
  EXPECT_EQ(view.begin(), view.end());
}

TEST(FromColumns, AdoptsSortedColumnsAsIs) {
  auto records = random_records(500, 15);
  std::sort(records.begin(), records.end(),
            [](const FailureRecord& a, const FailureRecord& b) {
              if (a.start != b.start) return a.start < b.start;
              if (a.system_id != b.system_id) return a.system_id < b.system_id;
              return a.node_id < b.node_id;
            });
  const FailureDataset ds =
      FailureDataset::from_columns(ColumnStore::from_records(records));
  ASSERT_EQ(ds.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(ds.records()[i], records[i]) << "row " << i;
  }
}

// Unsorted columns come out in the order of a stable sort of the records
// by (start, system, node). Each repeated key differs in its end, cause
// and workload, so a sort that reorders ties shows. The second input has
// one start far enough out that the keys no longer pack into 64 bits,
// which takes the comparison sort instead of the radix passes.
TEST(FromColumns, SortsUnsortedColumnsLikeAStableSortOfTheRecords) {
  constexpr hpcfail::Seconds kFar = hpcfail::Seconds{1} << 60;
  for (const hpcfail::Seconds far : {hpcfail::Seconds{0}, kFar}) {
    SCOPED_TRACE("far=" + std::to_string(far));
    auto records = random_records(500, 16);  // unsorted
    records[250].start += far;
    records[250].end += far;
    // Two ties for each of rows 0-99 (compute, hardware).
    for (std::size_t i = 0; i < 200; ++i) {
      FailureRecord tie = records[i % 100];
      tie.end += 1 + static_cast<hpcfail::Seconds>(i);
      tie.workload = i < 100 ? Workload::graphics : Workload::frontend;
      tie.detail = i < 100 ? DetailCause::scheduler : DetailCause::nic;
      tie.cause = hpcfail::trace::category_of(tie.detail);
      records.push_back(tie);
    }
    std::vector<FailureRecord> want = records;
    std::stable_sort(want.begin(), want.end(),
                     [](const FailureRecord& a, const FailureRecord& b) {
                       return std::tie(a.start, a.system_id, a.node_id) <
                              std::tie(b.start, b.system_id, b.node_id);
                     });
    const FailureDataset got =
        FailureDataset::from_columns(ColumnStore::from_records(records));
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got.records()[i], want[i]) << "row " << i;
    }
  }
}

// Starts at +9e18 and -9e18 lie further apart than Seconds holds, so
// the merge key's start range must be taken without signed overflow.
TEST(FromColumns, SortsStartsFurtherApartThanSecondsHolds) {
  constexpr hpcfail::Seconds kFar = 9'000'000'000'000'000'000;
  const FailureRecord late = make_record(1, 0, kFar, 0);
  const FailureRecord early = make_record(1, 0, -kFar, 60);
  const std::vector<FailureRecord> records = {late, early};
  const FailureDataset ds =
      FailureDataset::from_columns(ColumnStore::from_records(records));
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.records()[0], early);
  EXPECT_EQ(ds.records()[1], late);
}

TEST(FromColumns, RejectsInconsistentRowsWithIndex) {
  auto records = random_records(10, 17);
  records[3].end = records[3].start - 1;  // end < start
  EXPECT_THROW(
      FailureDataset::from_columns(ColumnStore::from_records(records)),
      hpcfail::InvalidArgument);

  records = random_records(10, 18);
  records[5].detail = DetailCause::undetermined;  // mismatches hardware
  EXPECT_THROW(
      FailureDataset::from_columns(ColumnStore::from_records(records)),
      hpcfail::InvalidArgument);
}

}  // namespace
