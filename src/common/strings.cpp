#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace hpcfail {

std::string_view trim_view(std::string_view s) noexcept {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(s[begin])) != 0) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(s[end - 1])) != 0) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::int64_t parse_i64(std::string_view s) {
  std::int64_t value = 0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || s.empty()) {
    throw ParseError("not an integer: '" + std::string(s) + "'");
  }
  return value;
}

double parse_double(std::string_view s) {
  double value = 0.0;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || s.empty() || !std::isfinite(value)) {
    throw ParseError("not a finite number: '" + std::string(s) + "'");
  }
  return value;
}

void append_int(std::string& out, std::int64_t value) {
  char buf[24] = {};  // 20 characters hold every int64
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  out.append(buf, static_cast<std::size_t>(end - buf));
}

std::string format_double(double value, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", prec, value);
  return buf;
}

}  // namespace hpcfail
