// read_csv parses line-aligned pieces of each window on the pool. Every
// test here holds it to one LineSource fed the whole stream: the same
// records in the same order, the same counters, the same csv.rows_read
// and, in strict mode, the same first error, whatever the window size and
// the thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "synth/generator.hpp"
#include "trace/io.hpp"

namespace hpcfail::trace {
namespace {

const std::string kGoodLine =
    "2,0,1996-06-07 08:48:45,1996-06-07 08:55:14,compute,human,"
    "operator_error";

/// The text of LineSource.EverySplitPointMatchesOneFeedAndLenientReadCsv:
/// quoted and spaced header fields, CRLF, blank lines, a repeated header,
/// a malformed line, an open quote and no final newline.
const std::string kMixedText =
    "\"system\", node ,start,end,workload,cause,\"detail\"\r\n" + kGoodLine +
    "\r\n" +
    "\n"
    "   \r\n"
    "\"2\",\"1\",\"1996-06-07\" 14:18:50,\"1996-06-07 14:40:17\","
    "compute,\"hardware\",memory_dimm\r\n" +
    std::string(kCsvHeader) + "\n" +
    "not,a,record\n"
    "2,0,\"1996-06-07 15:00:00,1996-06-07 15:10:00,compute,human,"
    "operator_error\n"
    "3,1,1996-06-08 02:00:00,1996-06-08 02:30:00,graphics,software,"
    "operating_system";

/// What one LineSource fed the whole text reports.
struct OneFeed {
  std::vector<FailureRecord> records;
  SourceCounters counters;
  std::uint64_t lines = 0;
};

OneFeed one_feed(std::string_view text) {
  LineSource source;
  source.feed(text);
  source.finish();
  OneFeed out;
  FailureRecord r;
  while (source.next(r) == SourceStatus::event) out.records.push_back(r);
  out.counters = source.counters();
  out.lines = source.lines();
  return out;
}

/// The first error of a strict one-feed read ("" when there is none).
std::string one_feed_error(std::string_view text) {
  LineSource source(native_format(), LineSource::OnError::throw_);
  source.feed(text);
  source.finish();
  FailureRecord r;
  try {
    while (source.next(r) == SourceStatus::event) {
    }
  } catch (const ParseError& e) {
    return std::string("ParseError: ") + e.what();
  }
  return "";
}

struct Windowed {
  FailureDataset dataset;
  SourceCounters counters;
  std::uint64_t rows_read = 0;
  std::size_t column_bytes = 0;  ///< the most the columns held
};

Windowed lenient_read(const std::string& text, std::size_t window) {
  obs::Counter& rows = obs::registry().counter("csv.rows_read");
  const std::uint64_t before = rows.value();
  std::istringstream in(text);
  Windowed out;
  out.dataset = detail::read_csv_windowed(in, native_format(), &out.counters,
                                          window, &out.column_bytes);
  out.rows_read = rows.value() - before;
  return out;
}

/// The first error of a strict windowed read ("" when it reads cleanly).
std::string strict_error(const std::string& text, std::size_t window) {
  std::istringstream in(text);
  try {
    detail::read_csv_windowed(in, native_format(), nullptr, window);
  } catch (const ParseError& e) {
    return std::string("ParseError: ") + e.what();
  }
  return "";
}

void expect_same(const Windowed& got, const OneFeed& want) {
  EXPECT_EQ(got.dataset.records().to_records(),
            FailureDataset(want.records).records().to_records());
  EXPECT_EQ(got.counters.accepted, want.counters.accepted);
  EXPECT_EQ(got.counters.rejected, want.counters.rejected);
  EXPECT_EQ(got.counters.last_error, want.counters.last_error);
  EXPECT_EQ(got.rows_read, want.lines);
}

std::size_t longest_line(std::string_view text) {
  std::size_t longest = 0;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    std::size_t end = text.find('\n', begin);
    if (end == std::string_view::npos) end = text.size();
    longest = std::max(longest, end - begin);
    begin = end + 1;
  }
  return longest;
}

/// The thread counts every test runs at; the pool is restored after.
class ChunkedRead : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override { set_parallelism(GetParam()); }
  void TearDown() override { set_parallelism(0); }
};

INSTANTIATE_TEST_SUITE_P(Threads, ChunkedRead, ::testing::Values(1u, 2u, 8u));

TEST_P(ChunkedRead, EveryWindowSizeMatchesOneFeedOnMixedText) {
  const OneFeed want = one_feed(kMixedText);
  ASSERT_EQ(want.records.size(), 3u);
  ASSERT_EQ(want.counters.rejected, 2u);
  for (std::size_t window = longest_line(kMixedText);
       window <= kMixedText.size(); ++window) {
    SCOPED_TRACE("window " + std::to_string(window));
    expect_same(lenient_read(kMixedText, window), want);
  }
}

/// A native CSV of about 20k records with bad lines of every kind mixed
/// in: malformed rows, open quotes, blank and CRLF lines, repeated
/// headers and a line over the 64 KiB limit.
std::string dirty_csv() {
  const FailureDataset ds = synth::generate_lanl_trace(3);
  std::ostringstream out;
  write_csv(out, ds);
  const std::string clean = out.str();
  std::string text;
  text.reserve(clean.size() + 128 * 1024);
  std::size_t begin = 0;
  std::size_t line = 0;
  while (begin < clean.size()) {
    const std::size_t end = clean.find('\n', begin);
    text.append(clean, begin, end - begin);
    switch (++line % 997) {
      case 100: text += "not,a,record"; break;
      case 200: text += ",\"open quote"; break;
      case 300: text += "\r\n"; break;
      case 400: text += "\n   "; break;
      case 500: text += "\n" + std::string(kCsvHeader); break;
      default: break;
    }
    if (line == 7001) text += "\n" + std::string(70 * 1024, 'y');
    text += '\n';
    begin = end + 1;
  }
  return text;
}

TEST_P(ChunkedRead, DirtyTraceMatchesOneFeedAtEveryWindow) {
  const std::string text = dirty_csv();
  const OneFeed want = one_feed(text);
  ASSERT_GT(want.records.size(), 19000u);
  ASSERT_GT(want.counters.rejected, 40u);
  const std::string want_error = one_feed_error(text);
  ASSERT_FALSE(want_error.empty());
  for (const std::size_t window :
       {std::size_t{64} * 1024, std::size_t{65537}, std::size_t{100003},
        std::size_t{1} << 20, text.size()}) {
    SCOPED_TRACE("window " + std::to_string(window));
    expect_same(lenient_read(text, window), want);
    EXPECT_EQ(strict_error(text, window), want_error);
  }
}

/// `count` good lines after the header, all kGoodLine's length, with a
/// same-length bad line (month 13) at each 0-based position in `bad`.
std::string lines_with_bad(std::size_t count,
                           const std::vector<std::size_t>& bad) {
  std::string bad_line = kGoodLine;
  bad_line.replace(bad_line.find("-06-"), 4, "-13-");
  std::string text = std::string(kCsvHeader) + "\n";
  for (std::size_t i = 0; i < count; ++i) {
    const bool is_bad = std::find(bad.begin(), bad.end(), i) != bad.end();
    text += (is_bad ? bad_line : kGoodLine) + "\n";
  }
  return text;
}

TEST_P(ChunkedRead, StrictReadThrowsTheFirstBadLineWhereverItFalls) {
  // A bad line at every position of a 40-line text, read through windows
  // of 3.5, 5, 6.5 and 11 lines: across the sizes and positions it falls
  // first and last in a piece, last in a window and inside the partial
  // line carried into the next window.
  const std::size_t line_bytes = kGoodLine.size() + 1;
  const std::size_t header_bytes = std::string(kCsvHeader).size() + 1;
  for (const std::size_t window :
       {line_bytes * 7 / 2, line_bytes * 5, line_bytes * 13 / 2,
        header_bytes + line_bytes * 11}) {
    for (std::size_t bad = 0; bad < 40; ++bad) {
      SCOPED_TRACE("window " + std::to_string(window) + ", bad line " +
                   std::to_string(bad));
      const std::string text = lines_with_bad(40, {bad});
      const std::string want = one_feed_error(text);
      ASSERT_EQ(want.rfind("ParseError: line " + std::to_string(bad + 2) +
                               ": ",
                           0),
                0u)
          << want;
      EXPECT_EQ(strict_error(text, window), want);
    }
  }
}

TEST_P(ChunkedRead, OfTwoBadLinesTheLowerNumberedThrows) {
  // One window holds all 24 lines, so every pair lands in two pieces
  // whenever the thread count makes more than one.
  for (std::size_t first = 0; first < 24; ++first) {
    for (std::size_t second = first + 1; second < 24; ++second) {
      const std::string text = lines_with_bad(24, {first, second});
      const std::string want = one_feed_error(text);
      ASSERT_NE(want.find("line " + std::to_string(first + 2) + ":"),
                std::string::npos);
      EXPECT_EQ(strict_error(text, text.size()), want)
          << "bad lines " << first << " and " << second;
    }
  }
}

TEST_P(ChunkedRead, AnOverLongLineWithoutNewlineIsRejectedOnce) {
  // At 64 KiB the line outgrows the window and the rest of the stream
  // goes through one LineSource; at 8 MiB the window holds all of it.
  const std::string text = std::string(kCsvHeader) + "\n" + kGoodLine +
                           "\n" + std::string(std::size_t{1} << 20, 'x');
  for (const std::size_t window :
       {std::size_t{64} * 1024, std::size_t{8} << 20}) {
    SCOPED_TRACE("window " + std::to_string(window));
    const Windowed got = lenient_read(text, window);
    EXPECT_EQ(got.dataset.size(), 1u);
    EXPECT_EQ(got.counters.accepted, 1u);
    EXPECT_EQ(got.counters.rejected, 1u);
    EXPECT_EQ(got.counters.last_error, "line 3: line longer than 65536 bytes");
    EXPECT_EQ(got.rows_read, 3u);
    EXPECT_EQ(strict_error(text, window),
              "ParseError: line 3: line longer than 65536 bytes");
  }
}

TEST_P(ChunkedRead, HeaderIsCheckedOnTheFirstLineOnly) {
  // 13 bytes hold "wrong,header\n", the first line.
  for (const std::size_t window : {std::size_t{13}, std::size_t{4096}}) {
    std::istringstream wrong("wrong,header\n" + kGoodLine + "\n");
    try {
      detail::read_csv_windowed(wrong, native_format(), nullptr, window);
      FAIL() << "should have thrown";
    } catch (const ParseError& e) {
      EXPECT_STREQ(e.what(), "unexpected trace header: 'wrong,header'");
    }
    std::istringstream empty("");
    EXPECT_THROW(
        detail::read_csv_windowed(empty, native_format(), nullptr, window),
        ParseError);
  }
}

TEST_P(ChunkedRead, BlankLinesTakeNoColumnSpace) {
  // 2 MiB of blank lines, LF and CRLF, between two records. Slices sized
  // by line count would zero-fill 27 bytes per blank line, about 50 MB.
  std::string text = std::string(kCsvHeader) + "\n" + kGoodLine + "\n" +
                     std::string(std::size_t{3} << 19, '\n');
  for (std::size_t i = 0; i < (std::size_t{1} << 18); ++i) text += "\r\n";
  text += kGoodLine + "\n";
  const OneFeed want = one_feed(text);
  ASSERT_EQ(want.records.size(), 2u);
  for (const std::size_t window :
       {std::size_t{64} * 1024, std::size_t{1} << 20, std::size_t{8} << 20}) {
    SCOPED_TRACE("window " + std::to_string(window));
    const Windowed got = lenient_read(text, window);
    expect_same(got, want);
    EXPECT_LE(got.column_bytes, 1024u);
  }
}

TEST_P(ChunkedRead, ResultHoldsNoSpareCapacity) {
  const std::string text = lines_with_bad(5000, {17, 4000});
  const Windowed got = lenient_read(text, 64 * 1024);
  ASSERT_EQ(got.dataset.size(), 4998u);
  const ColumnStore& columns = got.dataset.columns();
  EXPECT_EQ(columns.bytes(), 4998u * (2 * sizeof(int) + 2 * sizeof(Seconds) +
                                      sizeof(Workload) + sizeof(RootCause) +
                                      sizeof(DetailCause)));
}

}  // namespace
}  // namespace hpcfail::trace
