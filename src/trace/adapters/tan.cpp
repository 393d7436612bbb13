#include "trace/adapters/tan.hpp"

#include <array>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/time.hpp"
#include "trace/adapters/token_map.hpp"
#include "trace/types.hpp"

namespace hpcfail::trace::adapters {

namespace {

// kAllRootCauses order. The release spells the unknown category
// "Undetermined" at both levels.
constexpr std::array<std::string_view, 6> kCauseTokens = {
    "Hardware", "Software", "Network", "Environment", "Human",
    "Undetermined"};

// DetailCause declaration order.
constexpr std::array<std::string_view, 16> kDetailTokens = {
    "DIMM",         "CPU",        "Interconnect", "Power Supply",
    "Disk",         "Other HW",   "OS",           "Parallel FS",
    "Scheduler",    "Other SW",   "Switch",       "NIC",
    "Power Outage", "AC Failure", "Operator",     "Undetermined"};

// Workload declaration order.
constexpr std::array<std::string_view, 3> kWorkloadTokens = {
    "Compute", "Graphics", "Frontend"};

/// Parses "MM/DD/YYYY HH:MM:SS". ParseError on any malformed or
/// out-of-range field (calendar validation included).
Seconds parse_us_timestamp(std::string_view text) {
  const auto bad = [&]() -> ParseError {
    return ParseError("bad timestamp '" + std::string(text) +
                      "' (want MM/DD/YYYY HH:MM:SS)");
  };
  if (text.size() != 19 || text[2] != '/' || text[5] != '/' ||
      text[10] != ' ' || text[13] != ':' || text[16] != ':') {
    throw bad();
  }
  CivilDateTime cdt;
  try {
    cdt.month = static_cast<int>(parse_i64(text.substr(0, 2)));
    cdt.day = static_cast<int>(parse_i64(text.substr(3, 2)));
    cdt.year = static_cast<int>(parse_i64(text.substr(6, 4)));
    cdt.hour = static_cast<int>(parse_i64(text.substr(11, 2)));
    cdt.minute = static_cast<int>(parse_i64(text.substr(14, 2)));
    cdt.second = static_cast<int>(parse_i64(text.substr(17, 2)));
    return to_epoch(cdt);
  } catch (const Error&) {
    throw bad();
  }
}

/// Appends "MM/DD/YYYY HH:MM:SS" (the year printed as %04d): the
/// canonical timestamp with its leading "<year>-MM-DD" rotated in place
/// to "MM/DD/<year>".
void append_us_timestamp(std::string& out, Seconds t) {
  const std::size_t at = out.size();
  append_timestamp(out, t);
  char* const text = out.data() + at;
  const std::size_t year_width = out.size() - at - 15;  // 4 in 0..9999
  const char* const month_day = text + year_width;      // "-MM-DD"
  const std::array<char, 6> us = {month_day[1], month_day[2], '/',
                                  month_day[4], month_day[5], '/'};
  std::memmove(text + us.size(), text, year_width);
  std::memcpy(text, us.data(), us.size());
}

}  // namespace

void TanAdapter::format_line(const FailureRecord& record,
                             std::string& out) const {
  append_int(out, record.system_id);
  out += '|';
  append_int(out, record.node_id);
  out += '|';
  append_us_timestamp(out, record.start);
  out += '|';
  append_us_timestamp(out, record.end);
  out += '|';
  append_int(out, record.end - record.start);
  out += '|';
  out += token_for(kCauseTokens, cause_index(record.cause));
  out += '|';
  out += token_for(kDetailTokens, static_cast<std::size_t>(record.detail));
  out += '|';
  out += token_for(kWorkloadTokens, static_cast<std::size_t>(record.workload));
}

FailureRecord TanAdapter::parse_line(std::string_view line) const {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::array<std::string_view, 8> fields;
  const std::size_t count = split_fields(line, '|', fields);
  if (count != fields.size()) {
    throw ParseError("expected 8 pipe-separated fields, got " +
                     std::to_string(count));
  }
  FailureRecord record;
  record.system_id = parse_id(fields[0], "system id");
  record.node_id = parse_id(fields[1], "node id");
  record.start = parse_us_timestamp(fields[2]);
  record.end = parse_us_timestamp(fields[3]);
  const std::int64_t duration = parse_i64(fields[4]);
  if (duration != record.end - record.start) {
    throw ValidationError(
        "duration " + std::to_string(duration) +
        "s disagrees with the down/up interval (" +
        std::to_string(record.end - record.start) + "s)");
  }
  record.cause =
      kAllRootCauses[index_of_token(kCauseTokens, fields[5], "category")];
  record.detail = static_cast<DetailCause>(
      index_of_token(kDetailTokens, fields[6], "subcategory"));
  record.workload = static_cast<Workload>(
      index_of_token(kWorkloadTokens, fields[7], "workload"));
  validate_adapted(record);
  return record;
}

}  // namespace hpcfail::trace::adapters
