#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace hpcfail {
namespace {

TEST(CsvEscape, PlainFieldsPassThrough) {
  EXPECT_EQ(csv_escape("hello"), "hello");
  EXPECT_EQ(csv_escape(""), "");
}

TEST(CsvEscape, QuotesSpecialCharacters) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(ParseCsv, SimpleRows) {
  const auto rows = parse_csv("a,b,c\n1,2,3\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"1", "2", "3"}));
}

TEST(ParseCsv, QuotedFieldWithSeparator) {
  const auto rows = parse_csv("\"a,b\",c\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a,b", "c"}));
}

TEST(ParseCsv, EscapedQuotes) {
  const auto rows = parse_csv("\"say \"\"hi\"\"\",x\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], "say \"hi\"");
}

TEST(ParseCsv, EmbeddedNewlineInQuotes) {
  const auto rows = parse_csv("\"two\nlines\",x\nnext,row\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "two\nlines");
  EXPECT_EQ(rows[1][0], "next");
}

TEST(ParseCsv, CrLfLineEndings) {
  const auto rows = parse_csv("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][1], "b");
  EXPECT_EQ(rows[1][1], "d");
}

TEST(ParseCsv, MissingFinalNewline) {
  const auto rows = parse_csv("a,b\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(ParseCsv, CrLfWithMissingFinalNewline) {
  // Regression: a CRLF file truncated before its final LF used to keep
  // the '\r' in the last field of the last row.
  const auto rows = parse_csv("a,b\r\nc,d\r");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(ParseCsv, QuotedFinalFieldFollowedByCrLf) {
  // Regression: the '\r' of a CRLF ending arrives *after* the closing
  // quote, so it must still be stripped even though the field was quoted
  // (standard RFC 4180 shape, e.g. Excel exports).
  const auto rows = parse_csv("a,\"b,c\"\r\nd,e\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b,c"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"d", "e"}));
}

TEST(ParseCsv, QuotedFinalFieldFollowedByCrAtEof) {
  // Same shape, CRLF file truncated before its final LF.
  const auto rows = parse_csv("a,\"b,c\"\r");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b,c"}));
}

TEST(ParseCsv, QuotedTrailingCrSurvivesCrLfEnding) {
  // A quoted '\r' at the end of the quoted region is data; only the
  // unquoted '\r' of the CRLF ending is stripped.
  const auto rows = parse_csv("a,\"b\r\"\r\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b\r"}));
}

TEST(ParseCsv, QuotedFinalFieldKeepsCarriageReturn) {
  // A quoted '\r' is data, not a line ending, even at end of input.
  const auto rows = parse_csv("a,\"b\r\"");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b\r"}));
}

TEST(ParseCsv, EmptyFields) {
  const auto rows = parse_csv(",,\n");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"", "", ""}));
}

TEST(CsvReader, UnterminatedQuoteThrows) {
  std::istringstream in("\"unterminated\n");
  CsvReader reader(in);
  std::vector<std::string> row;
  EXPECT_THROW(reader.next_row(row), ParseError);
}

TEST(CsvReader, TracksLineNumbersAcrossMultilineFields) {
  std::istringstream in("first,row\n\"multi\nline\",x\nlast,row\n");
  CsvReader reader(in);
  std::vector<std::string> row;
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_EQ(reader.line_number(), 1u);
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_EQ(reader.line_number(), 2u);
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_EQ(reader.line_number(), 4u);  // multiline field consumed line 3
  EXPECT_FALSE(reader.next_row(row));
}

TEST(CsvLineSplitter, YieldsTheFieldsCsvReaderYieldsForOneLine) {
  // Random lines rich in separators and quotes: where CsvReader reads the
  // line as one row, the splitter yields the same fields; where a quote
  // never closes, the splitter says so.
  Rng rng(0xc5f5u);
  constexpr char kAlphabet[] = {'a', 'b', ',', '"', ' '};
  for (int i = 0; i < 20000; ++i) {
    std::string line(1 + rng.uniform_index(12), 'a');
    for (char& c : line) c = kAlphabet[rng.uniform_index(sizeof kAlphabet)];
    CsvLineSplitter splitter(line);
    std::vector<std::string_view> views;  // all alive at once, as in use
    for (std::string_view field; splitter.next(field);) {
      views.push_back(field);
    }
    const std::vector<std::string> fields(views.begin(), views.end());
    try {
      const auto rows = parse_csv(line);
      ASSERT_EQ(rows.size(), 1u) << line;
      EXPECT_FALSE(splitter.unterminated()) << line;
      EXPECT_EQ(fields, rows[0]) << line;
    } catch (const ParseError&) {
      EXPECT_TRUE(splitter.unterminated()) << line;
    }
  }
}

/// One CSV row: each field through csv_escape, then '\n'.
std::string csv_row(const std::vector<std::string>& fields, char sep = ',') {
  std::string row;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) row += sep;
    row += csv_escape(fields[i], sep);
  }
  return row + '\n';
}

TEST(CsvEscape, RoundTripsThroughReader) {
  const std::vector<std::vector<std::string>> rows = {
      {"plain", "with,comma", "with \"quote\""},
      {"", "second\nline", "x"},
  };
  const auto parsed = parse_csv(csv_row(rows[0]) + csv_row(rows[1]));
  EXPECT_EQ(parsed, rows);
}

TEST(CsvEscape, FieldEndingInCarriageReturnRoundTrips) {
  // Regression: the CRLF strip used to eat a quoted trailing '\r' on
  // the way back in, so write -> read was lossy for this field.
  const auto parsed = parse_csv(csv_row({"x", "ends with cr\r"}));
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0][1], "ends with cr\r");
}

TEST(CsvEscape, CustomSeparator) {
  const std::string row = csv_row({"a;b", "c"}, ';');
  EXPECT_EQ(row, "\"a;b\";c\n");
  const auto parsed = parse_csv(row, ';');
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0][0], "a;b");
}

}  // namespace
}  // namespace hpcfail
