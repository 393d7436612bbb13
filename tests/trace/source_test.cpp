#include "trace/source.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "trace/io.hpp"

namespace hpcfail::trace {
namespace {

const std::string kGoodLine =
    "2,0,1996-06-07 08:48:45,1996-06-07 08:55:14,compute,human,"
    "operator_error";

std::string sample_csv() {
  std::string text = std::string(kCsvHeader) + "\n";
  text += kGoodLine + "\n";
  text += "2,0,1996-06-07 14:18:50,1996-06-07 14:40:17,compute,hardware,"
          "memory_dimm\n";
  return text;
}

FailureRecord parse_native(std::string_view line) {
  return native_format().parse_line(line);
}

TEST(RecordFromLine, ParsesAndTrims) {
  const FailureRecord r =
      parse_native(" 2 , 0 , 1996-06-07 08:48:45 , 1996-06-07 08:55:14 "
                   ",compute,human,operator_error");
  EXPECT_EQ(r.system_id, 2);
  EXPECT_EQ(r.node_id, 0);
  EXPECT_EQ(r.end - r.start, 389);
  EXPECT_EQ(r.cause, RootCause::human);
}

TEST(RecordFromLine, RejectsWrongFieldCount) {
  try {
    parse_native("1,2,3");
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("expected 7 fields, got 3"),
              std::string::npos);
  }
  EXPECT_THROW(parse_native(kGoodLine + ",extra"), ParseError);
}

TEST(RecordFromLine, RejectsInconsistentRecord) {
  // end < start.
  EXPECT_THROW(
      parse_native("2,0,1996-06-07 08:55:14,1996-06-07 08:48:45,"
                   "compute,human,operator_error"),
      ParseError);
  // cause/detail mismatch.
  EXPECT_THROW(
      parse_native("2,0,1996-06-07 08:48:45,1996-06-07 08:55:14,"
                   "compute,human,memory_dimm"),
      ParseError);
}

TEST(RecordFromLine, RejectsIdsOutsideInt) {
  // 2^32 + 1 narrowed to an int would alias system (or node) 1.
  const std::string rest =
      ",1996-06-07 08:48:45,1996-06-07 08:55:14,compute,human,"
      "operator_error";
  try {
    parse_native("4294967297,0" + rest);
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "system id out of range: '4294967297'");
  }
  try {
    parse_native("2,4294967297" + rest);
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "node id out of range: '4294967297'");
  }
  EXPECT_THROW(parse_native("-2147483649,0" + rest), ParseError);
  EXPECT_EQ(parse_native("2147483647,0" + rest).system_id, 2147483647);
}

TEST(RecordFromLine, SplitsQuotedFieldsLikeTheBatchReader) {
  // A quote opens only at the start of a field, "" is a literal quote
  // and text after the closing quote is appended.
  const FailureRecord r = parse_native(
      "\"2\",\"0\",\"1996-06-07\" 08:48:45,1996-06-07 08:55:14,"
      "\"compute\",human,\"operator_error\"\r");
  EXPECT_EQ(r, parse_native(kGoodLine));
  try {
    // Seven fields: the comma is quoted, and "" unescapes to one quote.
    parse_native("2,0,1996-06-07 08:48:45,1996-06-07 08:55:14,compute,"
                 "human,\"oper\"\"ator,error\"");
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "unknown detail cause: 'oper\"ator,error'");
  }
  try {
    parse_native("2,0,\"1996-06-07 08:48:45,1996-06-07 08:55:14,"
                 "compute,human,operator_error");
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "unterminated quoted CSV field");
  }
}

/// A strict source that has been fed all of `text`.
LineSource strict_source(const std::string& text) {
  LineSource source(native_format(), LineSource::OnError::throw_);
  source.feed(text);
  source.finish();
  return source;
}

TEST(CsvSource, MatchesReadCsv) {
  std::istringstream b(sample_csv());
  LineSource source = strict_source(sample_csv());
  std::vector<FailureRecord> pulled;
  FailureRecord r;
  while (source.next(r) == SourceStatus::event) pulled.push_back(r);
  EXPECT_EQ(source.next(r), SourceStatus::end);  // end is sticky
  EXPECT_EQ(source.counters().accepted, 2u);

  const FailureDataset ds = read_csv(b);
  ASSERT_EQ(pulled.size(), ds.size());
  std::size_t i = 0;
  for (const FailureRecord& expected : ds.records()) {
    EXPECT_EQ(pulled[i].start, expected.start);
    EXPECT_EQ(pulled[i].system_id, expected.system_id);
    ++i;
  }
}

TEST(CsvSource, HeaderErrorsMatchReadCsvContract) {
  {
    std::istringstream in("");
    try {
      read_csv(in);
      FAIL() << "should have thrown";
    } catch (const ParseError& e) {
      EXPECT_STREQ(e.what(), "empty trace file (missing header)");
    }
  }
  {
    std::istringstream in("wrong,header\n1,2\n");
    try {
      read_csv(in);
      FAIL() << "should have thrown";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("unexpected trace header"),
                std::string::npos);
    }
  }
}

TEST(CsvSource, ThrowModeReportsLineNumber) {
  LineSource source = strict_source(std::string(kCsvHeader) + "\n" +
                                    kGoodLine + "\nnot,a,record\n");
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::event);
  try {
    source.next(r);
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3:"), std::string::npos);
  }
}

TEST(CsvSource, RejectModeCountsAndContinues) {
  LineSource source;
  source.feed(std::string(kCsvHeader) + "\nnot,a,record\n" + kGoodLine +
              "\n");
  source.finish();
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::event);  // skipped the bad line
  EXPECT_EQ(source.next(r), SourceStatus::end);
  EXPECT_EQ(source.counters().accepted, 1u);
  EXPECT_EQ(source.counters().rejected, 1u);
  EXPECT_NE(source.counters().last_error.find("line 2:"), std::string::npos);
}

TEST(LineSource, ReassemblesChunkedFeeds) {
  LineSource source;
  const std::string two_lines = kGoodLine + "\n" + kGoodLine + "\n";
  FailureRecord r;
  // Feed one byte at a time: every split point must reassemble.
  for (const char ch : two_lines) source.feed(std::string_view(&ch, 1));
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.next(r), SourceStatus::idle);  // stream still open
  EXPECT_EQ(source.counters().accepted, 2u);
}

TEST(LineSource, SkipsBlankLinesAndEchoedHeader) {
  LineSource source;
  source.feed("\n  \n" + std::string(kCsvHeader) + "\n" + kGoodLine + "\n");
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.next(r), SourceStatus::idle);
  EXPECT_EQ(source.counters().accepted, 1u);
  EXPECT_EQ(source.counters().rejected, 0u);
}

TEST(LineSource, RejectsMalformedWithLineNumber) {
  LineSource source;
  source.feed("garbage line\n" + kGoodLine + "\n");
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.counters().rejected, 1u);
  EXPECT_NE(source.counters().last_error.find("line 1:"), std::string::npos);
}

TEST(LineSource, HandlesCrlfAndFinalUnterminatedLine) {
  LineSource source;
  source.feed(kGoodLine + "\r\n" + kGoodLine);  // second line: no newline
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.next(r), SourceStatus::idle);  // partial line buffered
  source.finish();
  EXPECT_EQ(source.next(r), SourceStatus::event);  // flushed by finish()
  EXPECT_EQ(source.next(r), SourceStatus::end);
  EXPECT_EQ(source.counters().accepted, 2u);
}

TEST(LineSource, OpenQuoteRejectsOnlyItsOwnLine) {
  const std::string open_quote =
      "2,0,\"1996-06-07 08:48:45,1996-06-07 08:55:14,compute,human,"
      "operator_error";
  const std::string text = std::string(kCsvHeader) + "\n" + open_quote +
                           "\n" + kGoodLine + "\n" + open_quote;
  // Lenient: the lines after the open quote still parse, and an open
  // quote at end of input is one more counted reject, not a throw.
  std::istringstream in(text);
  SourceCounters counters;
  const FailureDataset ds = read_csv(in, native_format(), &counters);
  EXPECT_EQ(ds.size(), 1u);
  EXPECT_EQ(counters.accepted, 1u);
  EXPECT_EQ(counters.rejected, 2u);
  EXPECT_EQ(counters.last_error, "line 4: unterminated quoted CSV field");
  // Strict: the first open quote throws with its own line number.
  std::istringstream strict(text);
  try {
    read_csv(strict);
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_STREQ(e.what(), "line 2: unterminated quoted CSV field");
  }
}

TEST(LineSource, RejectsAnOverLongLineBeforeItsNewlineArrives) {
  LineSource source;
  FailureRecord r;
  std::uint64_t events = 0;
  const auto drain = [&] {
    while (true) {
      const SourceStatus status = source.next(r);
      if (status != SourceStatus::event) return status;
      ++events;
    }
  };
  source.feed(kGoodLine + "\n");
  EXPECT_EQ(drain(), SourceStatus::idle);
  // 1 MiB without a newline, fed like the daemon feeds a connection.
  const std::string chunk(4096, 'x');
  for (int i = 0; i < 256; ++i) {
    source.feed(chunk);
    EXPECT_EQ(drain(), SourceStatus::idle);
    if (static_cast<std::size_t>(i + 1) * chunk.size() > kMaxLineBytes) {
      EXPECT_EQ(source.counters().rejected, 1u) << "after chunk " << i;
    }
  }
  source.feed("xx\n" + kGoodLine + "\n");
  source.finish();
  EXPECT_EQ(drain(), SourceStatus::end);
  EXPECT_EQ(events, 2u);
  EXPECT_EQ(source.counters().accepted, 2u);
  EXPECT_EQ(source.counters().rejected, 1u);
  EXPECT_EQ(source.counters().last_error,
            "line 2: line longer than 65536 bytes");

  // The same line arriving in one feed is rejected the same way.
  LineSource whole;
  whole.feed(kGoodLine + "\n" + std::string(1 << 20, 'x') + "\n" +
             kGoodLine + "\n");
  whole.finish();
  while (whole.next(r) == SourceStatus::event) {
  }
  EXPECT_EQ(whole.counters().accepted, 2u);
  EXPECT_EQ(whole.counters().rejected, 1u);
  EXPECT_EQ(whole.counters().last_error, source.counters().last_error);
}

TEST(LineSource, EverySplitPointMatchesOneFeedAndLenientReadCsv) {
  const std::string text =
      "\"system\", node ,start,end,workload,cause,\"detail\"\r\n" +
      kGoodLine + "\r\n" +
      "\n"
      "   \r\n"
      "\"2\",\"1\",\"1996-06-07\" 14:18:50,\"1996-06-07 14:40:17\","
      "compute,\"hardware\",memory_dimm\r\n" +
      std::string(kCsvHeader) + "\n" +
      "not,a,record\n"
      "2,0,\"1996-06-07 15:00:00,1996-06-07 15:10:00,compute,human,"
      "operator_error\n"
      "3,1,1996-06-08 02:00:00,1996-06-08 02:30:00,graphics,software,"
      "operating_system";  // no final newline
  struct Pulled {
    std::vector<FailureRecord> records;
    SourceCounters counters;
  };
  const auto pull = [&text](std::size_t split) {
    LineSource source;
    Pulled out;
    FailureRecord r;
    source.feed(std::string_view(text).substr(0, split));
    while (source.next(r) == SourceStatus::event) out.records.push_back(r);
    source.feed(std::string_view(text).substr(split));
    source.finish();
    while (source.next(r) == SourceStatus::event) out.records.push_back(r);
    out.counters = source.counters();
    return out;
  };
  const Pulled one = pull(text.size());
  ASSERT_EQ(one.records.size(), 3u);
  EXPECT_EQ(one.counters.accepted, 3u);
  EXPECT_EQ(one.counters.rejected, 2u);
  EXPECT_EQ(one.counters.last_error, "line 8: unterminated quoted CSV field");
  for (std::size_t split = 0; split <= text.size(); ++split) {
    const Pulled two = pull(split);
    ASSERT_EQ(two.records, one.records) << "split at " << split;
    EXPECT_EQ(two.counters.accepted, one.counters.accepted);
    EXPECT_EQ(two.counters.rejected, one.counters.rejected);
    EXPECT_EQ(two.counters.last_error, one.counters.last_error);
  }

  std::istringstream in(text);
  SourceCounters counters;
  const FailureDataset ds = read_csv(in, native_format(), &counters);
  EXPECT_EQ(ds.records().to_records(),
            FailureDataset(one.records).records().to_records());
  EXPECT_EQ(counters.accepted, one.counters.accepted);
  EXPECT_EQ(counters.rejected, one.counters.rejected);
  EXPECT_EQ(counters.last_error, one.counters.last_error);
}

/// Today's rule for the lines LineSource skips: a blank line (one field,
/// empty once unquoted and trimmed) or the format's header.
bool blank_or_header(const Adapter& format, std::string_view line) {
  CsvLineSplitter splitter(line);
  std::string_view field;
  const bool blank = splitter.next(field) && trim_view(field).empty() &&
                     !splitter.next(field) && !splitter.unterminated();
  return blank || is_header(format, line);
}

/// The registered adapters plus the native format.
std::vector<const Adapter*> every_format() {
  std::vector<const Adapter*> formats(all_adapters().begin(),
                                      all_adapters().end());
  formats.push_back(&native_format());
  return formats;
}

TEST(LineSource, SkipsExactlyTheBlankAndHeaderLines) {
  for (const Adapter* format : every_format()) {
    const std::string header(format->header());
    // Blank-looking lines and header variants, then every byte in front
    // of nothing, the header's tail, the header and a quoted empty field.
    std::vector<std::string> lines = {"", " ", "\r", "\"\"", "\"\"  ", "\""};
    lines.push_back(header);
    lines.push_back("  " + header + " \r");
    lines.push_back("\"" + header.substr(0, 1) + "\"" + header.substr(1));
    lines.push_back(header + ",");
    for (int byte = 0; byte < 256; ++byte) {
      if (byte == '\n') continue;
      const std::string first(1, static_cast<char>(byte));
      lines.push_back(first);
      lines.push_back(first + header.substr(1));
      lines.push_back(first + header);
      lines.push_back(first + "\"\"");
    }
    for (const std::string& line : lines) {
      LineSource source(*format, LineSource::OnError::reject);
      source.feed(line);
      source.finish();
      FailureRecord r;
      while (source.next(r) == SourceStatus::event) {
      }
      const SourceCounters& counters = source.counters();
      EXPECT_EQ(counters.accepted + counters.rejected == 0,
                blank_or_header(*format, line))
          << format->name() << " line '" << line << "'";
    }
  }
}

TEST(LineSource, EveryHeaderStartsWithAByteThatRulesItOut) {
  // The first-byte test relies on this (Adapter::header()).
  for (const Adapter* format : every_format()) {
    ASSERT_FALSE(format->header().empty()) << format->name();
    const char first = format->header().front();
    EXPECT_GT(static_cast<unsigned char>(first), ' ') << format->name();
    EXPECT_NE(first, '"') << format->name();
    EXPECT_NE(first, ',') << format->name();
  }
}

class TailSourceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test and process: ctest runs each case as its own
    // process, in parallel under -j.
    path_ = ::testing::TempDir() + "/tail_source_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            "_" + std::to_string(::getpid()) + ".csv";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void append_text(const std::string& text) {
    std::ofstream out(path_, std::ios::app | std::ios::binary);
    out << text;
  }

  std::string path_;
};

TEST_F(TailSourceTest, PicksUpAppendedLines) {
  append_text(std::string(kCsvHeader) + "\n" + kGoodLine + "\n");
  TailSource source(path_);
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.next(r), SourceStatus::idle);  // caught up, never ends

  append_text(kGoodLine + "\n");
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.counters().accepted, 2u);
  EXPECT_GT(source.offset(), 0u);
}

TEST_F(TailSourceTest, MissingFileIsIdleNotError) {
  TailSource source(path_);  // file does not exist yet
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::idle);
  append_text(kGoodLine + "\n");
  EXPECT_EQ(source.next(r), SourceStatus::event);
}

TEST_F(TailSourceTest, TruncationRestartsFromTop) {
  append_text(kGoodLine + "\n");
  TailSource source(path_);
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::event);

  // Truncate + rewrite shorter: the tailer must reset its offset.
  std::ofstream(path_, std::ios::trunc).close();
  ASSERT_EQ(source.next(r), SourceStatus::idle);
  append_text(kGoodLine + "\n");
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.counters().accepted, 2u);
  EXPECT_GE(source.rewrites_detected(), 1u);
}

TEST_F(TailSourceTest, TruncateThenRegrowPastOldOffsetIsDetected) {
  // Seed a file and consume everything, leaving offset_ at its end.
  append_text(kGoodLine + "\n" + kGoodLine + "\n");
  TailSource source(path_);
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.next(r), SourceStatus::idle);
  const std::uint64_t old_offset = source.offset();

  // Rewrite the file with DIFFERENT leading content that is LARGER than the
  // old offset. A size-only check reads this as an append and resumes mid-file;
  // the leading-bytes signature must flag it as a rewrite instead.
  std::string rewritten = std::string(kCsvHeader) + "\n";
  for (int i = 0; i < 5; ++i) {
    rewritten += "3,1,1996-06-08 02:00:0" + std::to_string(i) +
                 ",1996-06-08 02:30:0" + std::to_string(i) +
                 ",compute,hardware,memory_dimm\n";
  }
  ASSERT_GT(rewritten.size(), old_offset);
  {
    std::ofstream out(path_, std::ios::trunc | std::ios::binary);
    out << rewritten;
  }

  std::vector<FailureRecord> replayed;
  while (source.next(r) == SourceStatus::event) replayed.push_back(r);
  EXPECT_EQ(source.rewrites_detected(), 1u);
  // Every record of the rewritten file arrives — nothing is skipped and no
  // half-line splice from the old read position is ever parsed.
  ASSERT_EQ(replayed.size(), 5u);
  for (const FailureRecord& rec : replayed) {
    EXPECT_EQ(rec.system_id, 3);
    EXPECT_EQ(rec.node_id, 1);
    EXPECT_EQ(rec.cause, RootCause::hardware);
  }
  EXPECT_EQ(source.counters().rejected, 0u);
  EXPECT_EQ(source.counters().accepted, 7u);
}

TEST_F(TailSourceTest, RewriteDiscardsBufferedPartialLine) {
  // Leave a partial (unterminated) line buffered in the decoder.
  append_text(kGoodLine + "\n2,0,1996-06-07 15:");
  TailSource source(path_);
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::event);
  EXPECT_EQ(source.next(r), SourceStatus::idle);  // partial line held back

  // Rewrite-with-regrow: the buffered fragment must be dropped, not spliced
  // onto the first line of the new file. Lead with the header so the leading
  // bytes differ from the old file's first record.
  std::string rewritten = std::string(kCsvHeader) + "\n";
  for (int i = 0; i < 8; ++i) rewritten += kGoodLine + "\n";
  {
    std::ofstream out(path_, std::ios::trunc | std::ios::binary);
    out << rewritten;
  }
  std::size_t events = 0;
  while (source.next(r) == SourceStatus::event) ++events;
  EXPECT_EQ(events, 8u);
  EXPECT_EQ(source.rewrites_detected(), 1u);
  EXPECT_EQ(source.counters().rejected, 0u);
}

TEST_F(TailSourceTest, ReadsALargeFileInBoundedPolls) {
  std::string text = std::string(kCsvHeader) + "\n";
  std::size_t lines = 0;
  for (; text.size() < (1u << 20); ++lines) text += kGoodLine + "\n";
  append_text(text);
  TailSource source(path_);
  FailureRecord r;
  ASSERT_EQ(source.next(r), SourceStatus::event);
  EXPECT_LE(source.offset(), kMaxLineBytes);  // one poll, not the file
  std::size_t events = 1;
  while (source.next(r) == SourceStatus::event) ++events;
  EXPECT_EQ(events, lines);
  EXPECT_EQ(source.offset(), text.size());
  EXPECT_EQ(source.counters().rejected, 0u);
}

TEST_F(TailSourceTest, PlainAppendIsNotFlaggedAsRewrite) {
  append_text(std::string(kCsvHeader) + "\n" + kGoodLine + "\n");
  TailSource source(path_);
  FailureRecord r;
  EXPECT_EQ(source.next(r), SourceStatus::event);
  for (int i = 0; i < 4; ++i) {
    append_text(kGoodLine + "\n");
    EXPECT_EQ(source.next(r), SourceStatus::event);
  }
  EXPECT_EQ(source.rewrites_detected(), 0u);
  EXPECT_EQ(source.counters().accepted, 5u);
}

}  // namespace
}  // namespace hpcfail::trace
