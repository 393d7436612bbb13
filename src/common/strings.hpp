// Small string utilities shared across the library (trimming, splitting,
// checked numeric parsing, integer appending, JSON and CSV escaping). All
// parsers throw ParseError with the offending text so trace-ingestion
// errors are actionable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hpcfail {

/// `s` without its leading and trailing ASCII whitespace.
std::string_view trim_view(std::string_view s) noexcept;

/// Splits on `sep`; keeps empty fields ("a,,b" -> {"a", "", "b"}).
std::vector<std::string> split(std::string_view s, char sep);

/// Parses a signed 64-bit integer; the whole string must be consumed.
/// Throws ParseError otherwise.
std::int64_t parse_i64(std::string_view s);

/// Parses a finite double; the whole string must be consumed.
/// Throws ParseError otherwise.
double parse_double(std::string_view s);

/// Appends `value` in decimal, as std::to_string would write it.
void append_int(std::string& out, std::int64_t value);

/// Formats a double with `prec` significant digits, trimming zeros.
std::string format_double(double value, int prec = 6);

/// `s` escaped for the inside of a JSON string literal: quote, backslash
/// and every control character. Inline because the obs exporter uses it
/// and hpcfail_common links hpcfail_obs, not the other way round.
inline std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[c >> 4];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// `field` as one CSV field: quoted, with each quote doubled, when it
/// holds the separator, a quote, '\n' or '\r'; otherwise unchanged.
/// Inline for the same reason as json_escape.
inline std::string csv_escape(std::string_view field, char separator = ',') {
  const char special[] = {separator, '"', '\n', '\r'};
  if (field.find_first_of(std::string_view(special, sizeof special)) ==
      std::string_view::npos) {
    return std::string(field);
  }
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace hpcfail
