#include "trace/io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace hpcfail::trace {
namespace {

FailureRecord rec(int system, int node, const std::string& start,
                  const std::string& end, Workload wl, RootCause cause,
                  DetailCause detail) {
  FailureRecord r;
  r.system_id = system;
  r.node_id = node;
  r.start = parse_timestamp(start);
  r.end = parse_timestamp(end);
  r.workload = wl;
  r.cause = cause;
  r.detail = detail;
  return r;
}

FailureDataset sample_dataset() {
  return FailureDataset({
      rec(20, 22, "2001-05-04 13:00:00", "2001-05-04 19:30:00",
          Workload::graphics, RootCause::hardware,
          DetailCause::memory_dimm),
      rec(7, 0, "2002-06-01 08:15:30", "2002-06-01 08:45:30",
          Workload::frontend, RootCause::software,
          DetailCause::operating_system),
      rec(2, 0, "1997-12-31 23:59:59", "1998-01-01 04:00:00",
          Workload::compute, RootCause::unknown, DetailCause::undetermined),
  });
}

TEST(TraceIo, WriteProducesHeaderAndRows) {
  std::ostringstream out;
  write_csv(out, sample_dataset());
  const std::string text = out.str();
  EXPECT_EQ(text.substr(0, std::string(kCsvHeader).size()), kCsvHeader);
  // Sorted by start: system 2's 1997 record first.
  EXPECT_NE(text.find("2,0,1997-12-31 23:59:59,1998-01-01 04:00:00,"
                      "compute,unknown,undetermined"),
            std::string::npos);
}

TEST(TraceIo, RoundTripPreservesEveryField) {
  const FailureDataset original = sample_dataset();
  std::stringstream buffer;
  write_csv(buffer, original);
  const FailureDataset reread = read_csv(buffer);
  ASSERT_EQ(reread.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(reread.records()[i], original.records()[i]) << "record " << i;
  }
}

TEST(TraceIo, AcceptsBlankLines) {
  std::istringstream in(
      "system,node,start,end,workload,cause,detail\n"
      "\n"
      "1,0,2000-01-01 00:00:00,2000-01-01 01:00:00,compute,hardware,cpu\n"
      "\n");
  const FailureDataset ds = read_csv(in);
  EXPECT_EQ(ds.size(), 1u);
}

TEST(TraceIo, RejectsMissingHeader) {
  std::istringstream in(
      "1,0,2000-01-01 00:00:00,2000-01-01 01:00:00,compute,hardware,cpu\n");
  EXPECT_THROW(read_csv(in), ParseError);
}

TEST(TraceIo, RejectsEmptyFile) {
  std::istringstream in("");
  EXPECT_THROW(read_csv(in), ParseError);
}

TEST(TraceIo, ReportsLineNumberOfWrongFieldCount) {
  std::istringstream in(
      "system,node,start,end,workload,cause,detail\n"
      "1,0,2000-01-01 00:00:00,2000-01-01 01:00:00,compute,hardware,cpu\n"
      "1,0,2000-01-02 00:00:00\n");
  try {
    read_csv(in);
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
  }
}

TEST(TraceIo, ReportsLineNumberOfBadTimestamp) {
  std::istringstream in(
      "system,node,start,end,workload,cause,detail\n"
      "1,0,not-a-date,2000-01-01 01:00:00,compute,hardware,cpu\n");
  try {
    read_csv(in);
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(TraceIo, RejectsEndBeforeStart) {
  std::istringstream in(
      "system,node,start,end,workload,cause,detail\n"
      "1,0,2000-01-01 02:00:00,2000-01-01 01:00:00,compute,hardware,cpu\n");
  EXPECT_THROW(read_csv(in), ParseError);
}

TEST(TraceIo, RejectsCauseDetailMismatch) {
  std::istringstream in(
      "system,node,start,end,workload,cause,detail\n"
      "1,0,2000-01-01 00:00:00,2000-01-01 01:00:00,compute,software,cpu\n");
  EXPECT_THROW(read_csv(in), ParseError);
}

TEST(TraceIo, RejectsUnknownEnumSpelling) {
  std::istringstream in(
      "system,node,start,end,workload,cause,detail\n"
      "1,0,2000-01-01 00:00:00,2000-01-01 01:00:00,compute,gremlins,cpu\n");
  EXPECT_THROW(read_csv(in), ParseError);
}

TEST(TraceIo, RejectsIdsOutsideInt) {
  // 2^32 + 1 narrowed to an int would alias system 1.
  std::istringstream in(
      "system,node,start,end,workload,cause,detail\n"
      "1,0,2000-01-01 00:00:00,2000-01-01 01:00:00,compute,hardware,cpu\n"
      "4294967297,0,2000-01-01 00:00:00,2000-01-01 01:00:00,compute,"
      "hardware,cpu\n");
  try {
    read_csv(in);
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "line 3: system id out of range: '4294967297'");
  }
}

TEST(TraceIo, SkipsARepeatedHeader) {
  // Concatenated traces repeat the header; it is skipped, not a bad row.
  std::istringstream in(
      "system,node,start,end,workload,cause,detail\n"
      "1,0,2000-01-01 00:00:00,2000-01-01 01:00:00,compute,hardware,cpu\n"
      "system,node,start,end,workload,cause,detail\n"
      "1,0,2000-01-02 00:00:00,2000-01-02 01:00:00,compute,hardware,cpu\n");
  EXPECT_EQ(read_csv(in).size(), 2u);
}

TEST(TraceIo, RowsReadCountsEveryLineOnce) {
  // csv.rows_read counts the lines of the file: each '\n', plus a last
  // line without one. Blank lines and headers count; a line over the
  // 64 KiB limit counts once, however many 64 KiB reads it spans.
  obs::Counter& read = obs::registry().counter("csv.rows_read");
  const std::string header = kCsvHeader;
  const std::string good =
      "1,0,2000-01-01 00:00:00,2000-01-01 01:00:00,compute,hardware,cpu";
  const std::string longer(200 * 1024, 'x');
  const std::vector<std::pair<std::string, std::uint64_t>> files = {
      {header + "\n\n" + good + "\n   \r\n" + longer + "\n" + good, 6},
      {header + "\n" + good + "\n\n" + longer, 4},
      {header + "\n" + longer + "\n\n" + good + "\n", 4},
      {header + "\n" + good + "\n" + header + "\n\n\n", 5},
  };
  for (const auto& [text, lines] : files) {
    ASSERT_EQ(lines, static_cast<std::uint64_t>(
                         std::count(text.begin(), text.end(), '\n') +
                         (text.back() != '\n')));
    std::istringstream in(text);
    SourceCounters counters;
    const std::uint64_t before = read.value();
    read_csv(in, native_format(), &counters);
    EXPECT_EQ(read.value() - before, lines) << lines;
  }
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/hpcfail_io_test.csv";
  write_csv_file(path, sample_dataset());
  const FailureDataset reread = read_csv_file(path);
  EXPECT_EQ(reread.size(), 3u);
  EXPECT_THROW(read_csv_file("/nonexistent/dir/file.csv"), Error);
}

TEST(TraceIo, FileWriterReportsAFullDisk) {
  // A few rows stay in the stream's buffer until it is flushed; that
  // flush must fail loudly, not in the destructor.
  if (!std::ofstream("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_THROW(write_csv_file("/dev/full", sample_dataset()), IoError);
}

}  // namespace
}  // namespace hpcfail::trace
