#include "common/time.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "common/error.hpp"

namespace hpcfail {

std::int64_t days_from_civil(int year, int m, int d) noexcept {
  // Howard Hinnant, "chrono-Compatible Low-Level Date Algorithms". The
  // year moves back one in 64 bits, where INT_MIN - 1 still fits.
  const std::int64_t y = std::int64_t{year} - (m <= 2);
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);           // [0,399]
  const unsigned doy =
      (153u * static_cast<unsigned>(m + (m > 2 ? -3 : 9)) + 2u) / 5u +
      static_cast<unsigned>(d) - 1u;                                   // [0,365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;          // [0,146096]
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

void civil_from_days(std::int64_t z, std::int64_t& year, int& month,
                     int& day) noexcept {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);        // [0,146096]
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;           // [0,399]
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);        // [0,365]
  const unsigned mp = (5 * doy + 2) / 153;                             // [0,11]
  day = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  month = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  year = y + (month <= 2);
}

int days_in_month(int year, int month) noexcept {
  static constexpr std::array<int, 12> kDays = {31, 28, 31, 30, 31, 30,
                                                31, 31, 30, 31, 30, 31};
  if (month < 1 || month > 12) return 0;
  const bool leap =
      (year % 4 == 0 && year % 100 != 0) || (year % 400 == 0);
  return kDays[static_cast<std::size_t>(month - 1)] +
         (month == 2 && leap ? 1 : 0);
}

bool is_valid_date(int year, int month, int day) noexcept {
  return month >= 1 && month <= 12 && day >= 1 &&
         day <= days_in_month(year, month);
}

Seconds to_epoch(const CivilDateTime& cdt) {
  HPCFAIL_EXPECTS(cdt.year >= std::numeric_limits<int>::min() &&
                      cdt.year <= std::numeric_limits<int>::max(),
                  "year out of range");
  const auto year = static_cast<int>(cdt.year);
  HPCFAIL_EXPECTS(is_valid_date(year, cdt.month, cdt.day),
                  "invalid calendar date");
  HPCFAIL_EXPECTS(cdt.hour >= 0 && cdt.hour <= 23, "hour out of range");
  HPCFAIL_EXPECTS(cdt.minute >= 0 && cdt.minute <= 59, "minute out of range");
  HPCFAIL_EXPECTS(cdt.second >= 0 && cdt.second <= 59, "second out of range");
  return days_from_civil(year, cdt.month, cdt.day) * kSecondsPerDay +
         cdt.hour * kSecondsPerHour + cdt.minute * kSecondsPerMinute +
         cdt.second;
}

Seconds to_epoch(int year, int month, int day) {
  return to_epoch(CivilDateTime{year, month, day, 0, 0, 0});
}

CivilDateTime from_epoch(Seconds t) noexcept {
  std::int64_t days = t / kSecondsPerDay;
  std::int64_t rem = t % kSecondsPerDay;
  if (rem < 0) {
    rem += kSecondsPerDay;
    --days;
  }
  CivilDateTime cdt;
  civil_from_days(days, cdt.year, cdt.month, cdt.day);
  cdt.hour = static_cast<int>(rem / kSecondsPerHour);
  cdt.minute = static_cast<int>((rem / kSecondsPerMinute) % 60);
  cdt.second = static_cast<int>(rem % 60);
  return cdt;
}

int hour_of_day(Seconds t) noexcept { return from_epoch(t).hour; }

int day_of_week(Seconds t) noexcept {
  std::int64_t days = t / kSecondsPerDay;
  if (t % kSecondsPerDay < 0) --days;
  // 1970-01-01 was a Thursday (= 4 with Sunday = 0).
  std::int64_t dow = (days + 4) % 7;
  if (dow < 0) dow += 7;
  return static_cast<int>(dow);
}

bool is_weekend(Seconds t) noexcept {
  const int dow = day_of_week(t);
  return dow == 0 || dow == 6;
}

int months_between(Seconds start, Seconds t) {
  HPCFAIL_EXPECTS(t >= start, "months_between requires t >= start");
  const CivilDateTime a = from_epoch(start);
  const CivilDateTime b = from_epoch(t);
  // 64 bits: the years of two instants lie up to 5.8e11 apart.
  std::int64_t months = (b.year - a.year) * 12 + (b.month - a.month);
  // Not yet a full month if the day-of-month (then time-of-day) is earlier.
  const auto time_of = [](const CivilDateTime& c) {
    return ((c.day * 24 + c.hour) * 60 + c.minute) * 60 + c.second;
  };
  if (time_of(b) < time_of(a)) --months;
  return static_cast<int>(std::clamp<std::int64_t>(
      months, 0, std::numeric_limits<int>::max()));
}

double years_between(Seconds start, Seconds end) noexcept {
  return (end >= start ? seconds_between(start, end)
                       : -seconds_between(end, start)) /
         kSecondsPerYear;
}

namespace {

/// "00" .. "99": two digits per table lookup.
constexpr std::array<char, 200> kDigitPairs = [] {
  std::array<char, 200> pairs{};
  for (int i = 0; i < 100; ++i) {
    pairs[static_cast<std::size_t>(2 * i)] = static_cast<char>('0' + i / 10);
    pairs[static_cast<std::size_t>(2 * i + 1)] =
        static_cast<char>('0' + i % 10);
  }
  return pairs;
}();

void put_pair(char* at, int value) noexcept {
  std::memcpy(at, &kDigitPairs[static_cast<std::size_t>(2 * value)], 2);
}

/// Two ASCII digits at text[i] as 0..99, or -1.
int digit_pair(std::string_view text, std::size_t i) noexcept {
  const unsigned hi = static_cast<unsigned char>(text[i]) - unsigned{'0'};
  const unsigned lo = static_cast<unsigned char>(text[i + 1]) - unsigned{'0'};
  return hi < 10 && lo < 10 ? static_cast<int>(hi * 10 + lo) : -1;
}

/// The canonical "YYYY-MM-DD HH:MM:SS" with every field in range; false
/// for any other input, which the general scanner then decides.
bool parse_canonical(std::string_view text, Seconds& out) noexcept {
  if (text.size() != 19 || text[4] != '-' || text[7] != '-' ||
      text[10] != ' ' || text[13] != ':' || text[16] != ':') {
    return false;
  }
  const int century = digit_pair(text, 0);
  const int year = digit_pair(text, 2);
  const int month = digit_pair(text, 5);
  const int day = digit_pair(text, 8);
  const int hour = digit_pair(text, 11);
  const int minute = digit_pair(text, 14);
  const int second = digit_pair(text, 17);
  if ((century | year | month | day | hour | minute | second) < 0 ||
      !is_valid_date(century * 100 + year, month, day) || hour > 23 ||
      minute > 59 || second > 59) {
    return false;
  }
  out = days_from_civil(century * 100 + year, month, day) * kSecondsPerDay +
        hour * kSecondsPerHour + minute * kSecondsPerMinute + second;
  return true;
}

/// One "%d"-style field: optional leading whitespace, then an int.
bool scan_int(std::string_view& s, int& out) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{}) return false;
  s.remove_prefix(static_cast<std::size_t>(ptr - s.data()));
  return true;
}

bool scan_char(std::string_view& s, char ch) {
  if (s.empty() || s.front() != ch) return false;
  s.remove_prefix(1);
  return true;
}

}  // namespace

void append_timestamp(std::string& out, Seconds t) {
  const CivilDateTime c = from_epoch(t);
  if (c.year < 0 || c.year > 9999) {  // a sign or a fifth digit
    char buf[40] = {};
    const int n = std::snprintf(buf, sizeof buf,
                                "%04lld-%02d-%02d %02d:%02d:%02d",
                                static_cast<long long>(c.year), c.month, c.day,
                                c.hour, c.minute, c.second);
    out.append(buf, static_cast<std::size_t>(n));
    return;
  }
  char buf[19] = {};
  put_pair(buf, static_cast<int>(c.year / 100));
  put_pair(buf + 2, static_cast<int>(c.year % 100));
  buf[4] = '-';
  put_pair(buf + 5, c.month);
  buf[7] = '-';
  put_pair(buf + 8, c.day);
  buf[10] = ' ';
  put_pair(buf + 11, c.hour);
  buf[13] = ':';
  put_pair(buf + 14, c.minute);
  buf[16] = ':';
  put_pair(buf + 17, c.second);
  out.append(buf, sizeof buf);
}

std::string format_timestamp(Seconds t) {
  std::string text;
  append_timestamp(text, t);
  return text;
}

// Hand-rolled with from_chars rather than sscanf: this runs twice per
// event on the streaming-ingest hot path, where sscanf's format
// interpretation and locale machinery dominated the parse cost. The
// canonical shape, which append_timestamp writes, skips the scanner; an
// out-of-range canonical field falls through to it for its message.
Seconds parse_timestamp(std::string_view text) {
  if (Seconds t = 0; parse_canonical(text, t)) return t;
  CivilDateTime c;
  int year = 0;
  std::string_view rest = text;
  const auto unparseable = [&text] {
    return ParseError("unparseable timestamp: '" + std::string(text) + "'");
  };
  if (!scan_int(rest, year) || !scan_char(rest, '-') ||
      !scan_int(rest, c.month) || !scan_char(rest, '-') ||
      !scan_int(rest, c.day)) {
    throw unparseable();
  }
  if (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t')) {
    // Time-of-day part ("%d %d:%d:%d": whitespace then three fields).
    if (!scan_int(rest, c.hour) || !scan_char(rest, ':') ||
        !scan_int(rest, c.minute) || !scan_char(rest, ':') ||
        !scan_int(rest, c.second)) {
      throw unparseable();
    }
  }
  if (!rest.empty()) {
    throw ParseError("trailing characters in timestamp: '" +
                     std::string(text) + "'");
  }
  c.year = year;
  try {
    return to_epoch(c);
  } catch (const InvalidArgument&) {
    throw ParseError("timestamp field out of range: '" + std::string(text) +
                     "'");
  }
}

}  // namespace hpcfail
