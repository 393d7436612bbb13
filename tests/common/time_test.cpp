#include "common/time.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace hpcfail {
namespace {

TEST(DaysFromCivil, EpochIsZero) {
  EXPECT_EQ(days_from_civil(1970, 1, 1), 0);
}

TEST(DaysFromCivil, KnownDates) {
  EXPECT_EQ(days_from_civil(1970, 1, 2), 1);
  EXPECT_EQ(days_from_civil(1969, 12, 31), -1);
  EXPECT_EQ(days_from_civil(2000, 1, 1), 10957);
  // The paper's observation window endpoints.
  EXPECT_EQ(days_from_civil(1996, 6, 1), 9648);
  EXPECT_EQ(days_from_civil(2005, 11, 30), 13117);
}

TEST(CivilFromDays, RoundTripsAcrossFourCenturies) {
  // Covers leap years, century non-leaps, and the 400-year leap.
  for (std::int64_t day = days_from_civil(1900, 1, 1);
       day <= days_from_civil(2100, 1, 1); day += 13) {
    std::int64_t y = 0;
    int m = 0;
    int d = 0;
    civil_from_days(day, y, m, d);
    EXPECT_EQ(days_from_civil(static_cast<int>(y), m, d), day);
    EXPECT_TRUE(is_valid_date(static_cast<int>(y), m, d));
  }
}

TEST(DaysInMonth, HandlesLeapYears) {
  EXPECT_EQ(days_in_month(2000, 2), 29);  // divisible by 400: leap
  EXPECT_EQ(days_in_month(1900, 2), 28);  // divisible by 100: not leap
  EXPECT_EQ(days_in_month(2004, 2), 29);
  EXPECT_EQ(days_in_month(2005, 2), 28);
  EXPECT_EQ(days_in_month(2005, 4), 30);
  EXPECT_EQ(days_in_month(2005, 12), 31);
}

TEST(IsValidDate, RejectsOutOfRange) {
  EXPECT_FALSE(is_valid_date(2005, 0, 1));
  EXPECT_FALSE(is_valid_date(2005, 13, 1));
  EXPECT_FALSE(is_valid_date(2005, 2, 29));
  EXPECT_FALSE(is_valid_date(2005, 4, 31));
  EXPECT_TRUE(is_valid_date(2004, 2, 29));
}

TEST(ToEpoch, MatchesKnownTimestamps) {
  EXPECT_EQ(to_epoch(1970, 1, 1), 0);
  EXPECT_EQ(to_epoch(CivilDateTime{2000, 1, 1, 12, 30, 15}),
            946729815);
}

TEST(ToEpoch, RejectsInvalidFields) {
  EXPECT_THROW(to_epoch(2005, 2, 29), InvalidArgument);
  EXPECT_THROW(to_epoch(CivilDateTime{2005, 1, 1, 24, 0, 0}),
               InvalidArgument);
  EXPECT_THROW(to_epoch(CivilDateTime{2005, 1, 1, 0, 60, 0}),
               InvalidArgument);
  EXPECT_THROW(to_epoch(CivilDateTime{2005, 1, 1, 0, 0, -1}),
               InvalidArgument);
}

TEST(ToEpoch, TakesEveryIntYearAndRejectsWiderOnes) {
  constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  // Hinnant's days_from_civil in exact integer arithmetic.
  EXPECT_EQ(to_epoch(CivilDateTime{kIntMin, 1, 1, 0, 0, 0}),
            -67'768'100'567'971'200);
  EXPECT_EQ(to_epoch(CivilDateTime{kIntMax, 12, 31, 23, 59, 59}),
            67'767'976'233'532'799);
  EXPECT_THROW(to_epoch(CivilDateTime{kIntMin - 1, 1, 1, 0, 0, 0}),
               InvalidArgument);
  EXPECT_THROW(to_epoch(CivilDateTime{kIntMax + 1, 1, 1, 0, 0, 0}),
               InvalidArgument);
}

TEST(FromEpoch, RoundTrips) {
  const CivilDateTime cdt{1997, 7, 15, 23, 59, 59};
  EXPECT_EQ(from_epoch(to_epoch(cdt)), cdt);
}

TEST(FromEpoch, HandlesNegativeTimes) {
  const CivilDateTime cdt = from_epoch(-1);
  EXPECT_EQ(cdt.year, 1969);
  EXPECT_EQ(cdt.month, 12);
  EXPECT_EQ(cdt.day, 31);
  EXPECT_EQ(cdt.hour, 23);
  EXPECT_EQ(cdt.minute, 59);
  EXPECT_EQ(cdt.second, 59);
}

TEST(DayOfWeek, KnownDays) {
  EXPECT_EQ(day_of_week(to_epoch(1970, 1, 1)), 4);   // Thursday
  EXPECT_EQ(day_of_week(to_epoch(2005, 11, 27)), 0); // Sunday
  EXPECT_EQ(day_of_week(to_epoch(2005, 11, 28)), 1); // Monday
  EXPECT_EQ(day_of_week(to_epoch(1996, 6, 1)), 6);   // Saturday
}

TEST(DayOfWeek, MidDayDoesNotShift) {
  const Seconds noon = to_epoch(2005, 11, 28) + 12 * kSecondsPerHour;
  EXPECT_EQ(day_of_week(noon), 1);
}

TEST(HourOfDay, ExtractsHour) {
  EXPECT_EQ(hour_of_day(to_epoch(2005, 3, 4)), 0);
  EXPECT_EQ(hour_of_day(to_epoch(2005, 3, 4) + 13 * kSecondsPerHour + 59),
            13);
}

TEST(IsWeekend, MatchesDayOfWeek) {
  EXPECT_TRUE(is_weekend(to_epoch(2005, 11, 27)));   // Sunday
  EXPECT_FALSE(is_weekend(to_epoch(2005, 11, 28)));  // Monday
  EXPECT_TRUE(is_weekend(to_epoch(2005, 11, 26)));   // Saturday
}

TEST(MonthsBetween, CountsWholeMonths) {
  const Seconds start = to_epoch(1997, 1, 1);
  EXPECT_EQ(months_between(start, start), 0);
  EXPECT_EQ(months_between(start, to_epoch(1997, 1, 31)), 0);
  EXPECT_EQ(months_between(start, to_epoch(1997, 2, 1)), 1);
  EXPECT_EQ(months_between(start, to_epoch(1998, 1, 1)), 12);
  EXPECT_EQ(months_between(start, to_epoch(2005, 11, 30)), 106);
}

TEST(MonthsBetween, MidMonthStart) {
  const Seconds start = to_epoch(1997, 1, 15);
  EXPECT_EQ(months_between(start, to_epoch(1997, 2, 14)), 0);
  EXPECT_EQ(months_between(start, to_epoch(1997, 2, 15)), 1);
}

TEST(MonthsBetween, SaturatesAtIntMax) {
  EXPECT_EQ(months_between(0, std::numeric_limits<Seconds>::max()),
            std::numeric_limits<int>::max());
  EXPECT_EQ(months_between(std::numeric_limits<Seconds>::min(),
                           std::numeric_limits<Seconds>::max()),
            std::numeric_limits<int>::max());
}

TEST(MonthsBetween, RejectsReversedArguments) {
  EXPECT_THROW(months_between(to_epoch(1998, 1, 1), to_epoch(1997, 1, 1)),
               InvalidArgument);
}

TEST(YearsBetween, ApproximatesCalendarYears) {
  EXPECT_NEAR(years_between(to_epoch(1996, 6, 1), to_epoch(2005, 6, 1)),
              9.0, 0.01);
}

TEST(YearsBetween, SpansWiderThanTheSignedRangeAreExact) {
  constexpr Seconds kFar = 9'000'000'000'000'000'000;
  EXPECT_EQ(years_between(-kFar, kFar), 1.8e19 / kSecondsPerYear);
  EXPECT_EQ(years_between(kFar, -kFar), -1.8e19 / kSecondsPerYear);
}

TEST(SecondsBetween, ExactAcrossTheWholeRange) {
  constexpr Seconds kMin = std::numeric_limits<Seconds>::min();
  constexpr Seconds kMax = std::numeric_limits<Seconds>::max();
  EXPECT_EQ(seconds_between(kMin, kMax), 0x1p64);  // 2^64 - 1, rounded
  EXPECT_EQ(seconds_between(-9'000'000'000'000'000'000,
                            9'000'000'000'000'000'000),
            1.8e19);
  EXPECT_EQ(seconds_between(kMax, kMax), 0.0);
  // Wherever the signed difference fits, it is the same double.
  Rng rng(0x5ec0u);
  for (int i = 0; i < 10000; ++i) {
    const int bits = 1 + static_cast<int>(rng.uniform_index(62));
    const auto draw = [&rng, bits] {
      const Seconds magnitude =
          static_cast<Seconds>(rng.next_u64() >> (64 - bits));
      return rng.uniform_index(2) == 0 ? magnitude : -magnitude;
    };
    Seconds a = draw();
    Seconds b = draw();
    if (b < a) std::swap(a, b);
    ASSERT_EQ(seconds_between(a, b), static_cast<double>(b - a))
        << a << " " << b;
  }
}

TEST(FormatTimestamp, CanonicalForm) {
  EXPECT_EQ(format_timestamp(to_epoch(CivilDateTime{2005, 11, 9, 8, 7, 6})),
            "2005-11-09 08:07:06");
}

/// The printf spelling format_timestamp has always produced.
std::string printf_timestamp(const CivilDateTime& c) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%04lld-%02d-%02d %02d:%02d:%02d",
                static_cast<long long>(c.year), c.month, c.day, c.hour,
                c.minute, c.second);
  return buf;
}

// Expected values from Hinnant's algorithm in exact integer arithmetic.
TEST(FormatTimestamp, KeepsEveryDigitOfTheYearAtTheEndsOfTheRange) {
  EXPECT_EQ(format_timestamp(9'000'000'000'000'000'000),
            "285198648531-04-21 16:00:00");
  EXPECT_EQ(format_timestamp(-9'000'000'000'000'000'000),
            "-285198644592-09-12 08:00:00");
  EXPECT_EQ(format_timestamp(std::numeric_limits<Seconds>::max()),
            "292277026596-12-04 15:30:07");
  EXPECT_EQ(format_timestamp(std::numeric_limits<Seconds>::min()),
            "-292277022657-01-27 08:29:52");
}

TEST(FormatTimestamp, MatchesPrintfFromYearMinus9999To99999) {
  const Seconds lo = to_epoch(-9999, 1, 1);
  const Seconds hi = to_epoch(100000, 1, 1) - 1;
  // The years 0, -1, 9999 and 10000 at their boundaries, and leap days.
  const Seconds y0 = to_epoch(0, 1, 1);
  const Seconds y10k = to_epoch(10000, 1, 1);
  std::vector<Seconds> instants = {0, -1, lo, hi, y0 - 1, y0, y10k - 1, y10k};
  for (const int year : {-4, 0, 1996, 2000}) {
    instants.push_back(to_epoch(year, 2, 29));
    instants.push_back(to_epoch(year, 2, 29) + kSecondsPerDay - 1);
  }
  Rng rng(20);
  const auto draw = [&rng](Seconds from, Seconds span) {
    return from + static_cast<Seconds>(
                      rng.uniform_index(static_cast<std::uint64_t>(span)));
  };
  for (int i = 0; i < 100000; ++i) {  // all years, then 0..9999
    instants.push_back(draw(lo, hi - lo + 1));
    instants.push_back(draw(y0, y10k - y0));
  }
  for (const Seconds t : instants) {
    ASSERT_EQ(format_timestamp(t), printf_timestamp(from_epoch(t))) << t;
  }
  std::string buffer = "kept,";
  append_timestamp(buffer, 0);
  EXPECT_EQ(buffer, "kept,1970-01-01 00:00:00");
}

TEST(ParseTimestamp, CanonicalShapeMatchesToEpochOrItsError) {
  // Fields drawn past their ranges (month 00 and 13, day 00 and 29-31,
  // hour 24, minute and second 60) as often as inside them.
  Rng rng(21);
  const auto pick = [&rng](int lo, int hi) {
    return lo + static_cast<int>(
                    rng.uniform_index(static_cast<std::uint64_t>(hi - lo + 1)));
  };
  std::vector<CivilDateTime> cases;
  for (const int year : {0, 1900, 1996, 2000, 2001, 2100, 2400, 9999}) {
    for (int day = 28; day <= 31; ++day) {
      cases.push_back(CivilDateTime{year, 2, day, 23, 59, 59});
    }
  }
  for (int i = 0; i < 100000; ++i) {
    cases.push_back(CivilDateTime{pick(0, 9999), pick(0, 13), pick(0, 31),
                                  pick(0, 24), pick(0, 60), pick(0, 60)});
  }
  for (const CivilDateTime& c : cases) {
    const std::string text = printf_timestamp(c);
    ASSERT_EQ(text.size(), 19u);
    Seconds want = 0;
    bool valid = true;
    try {
      want = to_epoch(c);
    } catch (const InvalidArgument&) {
      valid = false;
    }
    if (valid) {
      ASSERT_EQ(parse_timestamp(text), want) << text;
      continue;
    }
    try {
      parse_timestamp(text);
      FAIL() << "accepted '" << text << "'";
    } catch (const ParseError& e) {
      ASSERT_EQ(std::string(e.what()),
                "timestamp field out of range: '" + text + "'");
    }
  }
}

TEST(ParseTimestamp, ParsesBothForms) {
  EXPECT_EQ(parse_timestamp("2005-11-09 08:07:06"),
            to_epoch(CivilDateTime{2005, 11, 9, 8, 7, 6}));
  EXPECT_EQ(parse_timestamp("2005-11-09"), to_epoch(2005, 11, 9));
}

TEST(ParseTimestamp, RoundTripsWithFormat) {
  const Seconds t = to_epoch(CivilDateTime{1999, 2, 28, 23, 0, 1});
  EXPECT_EQ(parse_timestamp(format_timestamp(t)), t);
}

TEST(ParseTimestamp, RejectsMalformedInput) {
  EXPECT_THROW(parse_timestamp(""), ParseError);
  EXPECT_THROW(parse_timestamp("not a date"), ParseError);
  EXPECT_THROW(parse_timestamp("2005-13-01"), ParseError);
  EXPECT_THROW(parse_timestamp("2005-02-29"), ParseError);
  EXPECT_THROW(parse_timestamp("2005-11-09 25:00:00"), ParseError);
  EXPECT_THROW(parse_timestamp("2005-11-09 08:07:06 trailing"), ParseError);
}

}  // namespace
}  // namespace hpcfail
