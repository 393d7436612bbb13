// End-to-end persistence properties: the full synthetic trace (and
// randomized record soups) must survive CSV export/import losslessly,
// and the umbrella header must compile.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "hpcfail.hpp"

namespace hpcfail::trace {
namespace {

TEST(RoundTrip, FullSyntheticTraceSurvivesCsv) {
  const FailureDataset original = synth::generate_lanl_trace(42);
  std::stringstream buffer;
  write_csv(buffer, original);
  const FailureDataset reread = read_csv(buffer);
  ASSERT_EQ(reread.size(), original.size());
  for (std::size_t i = 0; i < original.size(); i += 97) {
    EXPECT_EQ(reread.records()[i], original.records()[i]) << "record " << i;
  }
  // Derived statistics are identical, not just the raw fields.
  EXPECT_DOUBLE_EQ(reread.total_downtime_minutes(),
                   original.total_downtime_minutes());
  EXPECT_EQ(reread.view().for_system(20).system_interarrivals(),
            original.view().for_system(20).system_interarrivals());
}

TEST(RoundTrip, RandomizedRecordsSurviveCsv) {
  // Property-style sweep: random valid records over every enum value and
  // a wide time range must round-trip exactly.
  hpcfail::Rng rng(0xC0FFEE);
  static constexpr DetailCause kDetails[] = {
      DetailCause::memory_dimm,      DetailCause::cpu,
      DetailCause::node_interconnect, DetailCause::power_supply,
      DetailCause::disk,             DetailCause::other_hardware,
      DetailCause::operating_system, DetailCause::parallel_fs,
      DetailCause::scheduler,        DetailCause::other_software,
      DetailCause::network_switch,   DetailCause::nic,
      DetailCause::power_outage,     DetailCause::ac_failure,
      DetailCause::operator_error,   DetailCause::undetermined,
  };
  static constexpr Workload kWorkloads[] = {
      Workload::compute, Workload::graphics, Workload::frontend};

  std::vector<FailureRecord> records;
  for (int i = 0; i < 2000; ++i) {
    FailureRecord r;
    r.system_id = 1 + static_cast<int>(rng.uniform_index(22));
    r.node_id = static_cast<int>(rng.uniform_index(1024));
    r.start = to_epoch(1996, 6, 1) +
              static_cast<Seconds>(rng.uniform_index(9ULL * 365 * 86400));
    r.end = r.start + static_cast<Seconds>(rng.uniform_index(86400 * 30));
    r.workload = kWorkloads[rng.uniform_index(3)];
    r.detail = kDetails[rng.uniform_index(16)];
    r.cause = category_of(r.detail);
    records.push_back(r);
  }
  const FailureDataset original(std::move(records));
  std::stringstream buffer;
  write_csv(buffer, original);
  const FailureDataset reread = read_csv(buffer);
  ASSERT_EQ(reread.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    ASSERT_EQ(reread.records()[i], original.records()[i]) << "record " << i;
  }
}

TEST(RoundTrip, EqualKeysKeepInputOrder) {
  // 1200 records over 30 (start, system, node) keys, told apart by their
  // end times. The dataset order is the stable sort of the input, so
  // ties keep their input order — through the record constructor and
  // through a CSV round trip, whose reader feeds already-sorted rows.
  const Seconds t0 = to_epoch(2004, 1, 1);
  std::vector<FailureRecord> sorted;
  for (int key = 0; key < 30; ++key) {
    for (int i = 0; i < 40; ++i) {
      FailureRecord r;
      r.system_id = 20;
      r.node_id = key % 3;
      r.start = t0 + (key / 3) * 3600;
      r.end = r.start + 1 + (key * 7919 + i * 104729) % 50000;
      r.cause = RootCause::hardware;
      r.detail = DetailCause::cpu;
      sorted.push_back(r);
    }
  }
  std::vector<FailureRecord> shuffled = sorted;
  hpcfail::Rng rng(0x71E5);
  for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng.uniform_index(i + 1)]);
  }
  const auto key_order = [](const FailureRecord& a, const FailureRecord& b) {
    return std::tie(a.start, a.system_id, a.node_id) <
           std::tie(b.start, b.system_id, b.node_id);
  };
  std::vector<FailureRecord> shuffled_expected = shuffled;
  std::stable_sort(shuffled_expected.begin(), shuffled_expected.end(),
                   key_order);

  for (const auto& [input, expected] :
       {std::pair{sorted, sorted}, std::pair{shuffled, shuffled_expected}}) {
    const FailureDataset ds{std::vector<FailureRecord>(input)};
    EXPECT_EQ(ds.records().to_records(), expected);
    std::stringstream buffer;
    write_csv(buffer, ds);
    EXPECT_EQ(read_csv(buffer).records().to_records(), expected);
  }
}

TEST(RoundTrip, SurvivesCrLfAndMissingFinalNewline) {
  // Property: the trace reader accepts the same file in the common
  // "hostile" encodings — CRLF line endings, blank separator lines, and
  // a truncated final newline — and produces the identical dataset.
  const FailureDataset original(synth::generate_lanl_trace(7)
                                    .view()
                                    .for_system(5)
                                    .materialize());
  ASSERT_GT(original.size(), 10u);
  std::stringstream clean;
  write_csv(clean, original);
  const std::string text = clean.str();

  // CRLF every line, and drop the final newline entirely.
  std::string crlf;
  for (const char c : text) {
    if (c == '\n') crlf += "\r\n";
    else crlf += c;
  }
  crlf.erase(crlf.size() - 2);  // strip the trailing "\r\n"

  // Blank lines sprinkled between rows.
  std::string blanks;
  std::size_t row = 0;
  for (const char c : text) {
    blanks += c;
    if (c == '\n' && ++row % 5 == 0) blanks += '\n';
  }

  for (const std::string& variant : {crlf, blanks}) {
    std::stringstream in(variant);
    const FailureDataset reread = read_csv(in);
    ASSERT_EQ(reread.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
      ASSERT_EQ(reread.records()[i], original.records()[i])
          << "record " << i;
    }
  }
}

TEST(RoundTrip, GeneratorIsStableAcrossRuns) {
  // The documented reproducibility guarantee: same seed, same trace,
  // down to the last byte of the serialized form.
  std::stringstream a;
  std::stringstream b;
  write_csv(a, synth::generate_lanl_trace(123));
  write_csv(b, synth::generate_lanl_trace(123));
  EXPECT_EQ(a.str(), b.str());
}

}  // namespace
}  // namespace hpcfail::trace
