#include "common/strings.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace hpcfail {
namespace {

TEST(Trim, StripsBothEnds) {
  EXPECT_EQ(trim_view("  hello  "), "hello");
  EXPECT_EQ(trim_view("\t a b \n"), "a b");
  EXPECT_EQ(trim_view(""), "");
  EXPECT_EQ(trim_view("   "), "");
  EXPECT_EQ(trim_view("x"), "x");
}

TEST(Split, KeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Split, EmptyStringGivesOneEmptyField) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Split, TrailingSeparator) {
  const auto parts = split("a,b,", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[2], "");
}

TEST(ParseI64, ParsesSignedIntegers) {
  EXPECT_EQ(parse_i64("0"), 0);
  EXPECT_EQ(parse_i64("-42"), -42);
  EXPECT_EQ(parse_i64("9223372036854775807"), 9223372036854775807LL);
}

TEST(ParseI64, RejectsGarbage) {
  EXPECT_THROW(parse_i64(""), ParseError);
  EXPECT_THROW(parse_i64("12x"), ParseError);
  EXPECT_THROW(parse_i64("x12"), ParseError);
  EXPECT_THROW(parse_i64("1.5"), ParseError);
  EXPECT_THROW(parse_i64("99999999999999999999"), ParseError);  // overflow
}

TEST(ParseDouble, ParsesNumbers) {
  EXPECT_DOUBLE_EQ(parse_double("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(parse_double("-1e-3"), -1e-3);
  EXPECT_DOUBLE_EQ(parse_double("0"), 0.0);
}

TEST(ParseDouble, RejectsGarbageAndNonFinite) {
  EXPECT_THROW(parse_double(""), ParseError);
  EXPECT_THROW(parse_double("abc"), ParseError);
  EXPECT_THROW(parse_double("1.5x"), ParseError);
  EXPECT_THROW(parse_double("1e999"), ParseError);  // overflows to inf
}

TEST(FormatDouble, TrimsTrailingZeros) {
  EXPECT_EQ(format_double(1.5), "1.5");
  EXPECT_EQ(format_double(2.0), "2");
  EXPECT_EQ(format_double(0.125, 3), "0.125");
}

}  // namespace
}  // namespace hpcfail
