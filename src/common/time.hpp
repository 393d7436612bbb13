// Civil-calendar time math for failure records.
//
// The LANL trace spans 1996-2005; records carry wall-clock timestamps whose
// calendar structure matters (hour-of-day and day-of-week failure-rate
// periodicity, months-in-production lifetime curves). Everything here works
// in UTC on signed 64-bit epoch seconds, using Howard Hinnant's proleptic
// Gregorian algorithms, so no locale or <ctime> state is involved.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace hpcfail {

/// Seconds since 1970-01-01T00:00:00Z. Signed: dates before 1970 are valid.
using Seconds = std::int64_t;

inline constexpr Seconds kSecondsPerMinute = 60;
inline constexpr Seconds kSecondsPerHour = 3600;
inline constexpr Seconds kSecondsPerDay = 86400;
inline constexpr double kSecondsPerYear = 365.2425 * 86400.0;
inline constexpr double kSecondsPerMonth = kSecondsPerYear / 12.0;

/// A calendar date-time (UTC, proleptic Gregorian). The year is 64-bit:
/// every Seconds instant, ±2.9e11 years at the ends, has its own year.
struct CivilDateTime {
  std::int64_t year = 1970;
  int month = 1;  ///< 1..12
  int day = 1;    ///< 1..31
  int hour = 0;   ///< 0..23
  int minute = 0; ///< 0..59
  int second = 0; ///< 0..59

  friend bool operator==(const CivilDateTime&, const CivilDateTime&) = default;
};

/// Days since the epoch for a civil date (Hinnant's days_from_civil).
std::int64_t days_from_civil(int year, int month, int day) noexcept;

/// Inverse of days_from_civil, for any day of the int64 range.
void civil_from_days(std::int64_t days, std::int64_t& year, int& month,
                     int& day) noexcept;

/// True for a valid proleptic-Gregorian calendar date.
bool is_valid_date(int year, int month, int day) noexcept;

/// Number of days in the given month (handles leap years).
int days_in_month(int year, int month) noexcept;

/// Epoch seconds for a civil date-time. Throws InvalidArgument when any
/// field is out of range, the year included: it must fit an int.
Seconds to_epoch(const CivilDateTime& cdt);

/// Convenience: epoch seconds at midnight of year/month/day.
Seconds to_epoch(int year, int month, int day);

/// Civil date-time for an epoch-seconds instant.
CivilDateTime from_epoch(Seconds t) noexcept;

/// Hour of day 0..23 at instant t.
int hour_of_day(Seconds t) noexcept;

/// Day of week at instant t: 0 = Sunday .. 6 = Saturday.
int day_of_week(Seconds t) noexcept;

/// True when t falls on Saturday or Sunday.
bool is_weekend(Seconds t) noexcept;

/// Whole calendar months from `start` to `t` (0 while inside the first
/// month), saturated at INT_MAX. Used to bucket failures into
/// months-in-production. Throws InvalidArgument when t < start.
int months_between(Seconds start, Seconds t);

/// Fractional years between two instants (may be negative).
double years_between(Seconds start, Seconds end) noexcept;

/// `later - earlier` for `earlier <= later`, as a double. The subtraction
/// runs in unsigned arithmetic, where it is exact for any two Seconds (a
/// signed one overflows once the pair spans more than 2^63 - 1 seconds);
/// wherever the signed difference fits, the result is the same double.
inline double seconds_between(Seconds earlier, Seconds later) noexcept {
  return static_cast<double>(static_cast<std::uint64_t>(later) -
                             static_cast<std::uint64_t>(earlier));
}

/// Appends t as "YYYY-MM-DD HH:MM:SS" (UTC): the bytes of printf's
/// "%04lld-%02d-%02d %02d:%02d:%02d" over its fields, so a year outside
/// 0..9999 keeps its sign and every digit. The one timestamp writer.
void append_timestamp(std::string& out, Seconds t);

/// append_timestamp into a new string.
std::string format_timestamp(Seconds t);

/// Parses "YYYY-MM-DD HH:MM:SS" or "YYYY-MM-DD". Throws ParseError on any
/// malformed or out-of-range input. The canonical 19-byte form with
/// two-digit fields is computed directly; every other spelling the
/// scanner accepts (unpadded fields, extra whitespace, a signed or long
/// year) parses to the same value by the general path.
Seconds parse_timestamp(std::string_view text);

}  // namespace hpcfail
