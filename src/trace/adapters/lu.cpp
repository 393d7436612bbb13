#include "trace/adapters/lu.hpp"

#include <array>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "trace/adapters/token_map.hpp"
#include "trace/types.hpp"

namespace hpcfail::trace::adapters {

namespace {

// kAllRootCauses order.
constexpr std::array<std::string_view, 6> kCauseTokens = {
    "HW", "SW", "NET", "ENV", "HUM", "UNK"};

// DetailCause declaration order.
constexpr std::array<std::string_view, 16> kDetailTokens = {
    "mem",    "cpu", "ic",     "psu", "disk",  "hw",
    "os",     "pfs", "sched",  "sw",  "switch", "nic",
    "outage", "ac",  "oper",   "unk"};

// Workload declaration order (compute, graphics, frontend).
constexpr std::array<std::string_view, 3> kWorkloadTokens = {"comp", "grfx",
                                                             "fe"};

/// Splits "c<system>n<node>" into its two ids.
void parse_node_path(std::string_view path, FailureRecord& record) {
  if (path.size() < 4 || path.front() != 'c') {
    throw ParseError("bad node path '" + std::string(path) +
                     "' (want c<system>n<node>)");
  }
  const std::size_t n = path.find('n', 1);
  if (n == std::string_view::npos || n + 1 >= path.size()) {
    throw ParseError("bad node path '" + std::string(path) +
                     "' (want c<system>n<node>)");
  }
  record.system_id = parse_id(path.substr(1, n - 1), "system id");
  record.node_id = parse_id(path.substr(n + 1), "node id");
}

}  // namespace

void LuAdapter::format_line(const FailureRecord& record,
                           std::string& out) const {
  append_int(out, record.start);
  out += " c";
  append_int(out, record.system_id);
  out += 'n';
  append_int(out, record.node_id);
  out += " NODE_FAIL ";
  append_int(out, record.end - record.start);
  out += "s ";
  out += token_for(kWorkloadTokens, static_cast<std::size_t>(record.workload));
  out += ' ';
  out += token_for(kCauseTokens, cause_index(record.cause));
  out += '/';
  out += token_for(kDetailTokens, static_cast<std::size_t>(record.detail));
}

FailureRecord LuAdapter::parse_line(std::string_view line) const {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::array<std::string_view, 6> fields;
  const std::size_t count = split_fields(line, ' ', fields);
  if (count != fields.size()) {
    throw ParseError("expected 6 space-separated fields, got " +
                     std::to_string(count));
  }
  if (fields[2] != "NODE_FAIL") {
    throw ParseError("unsupported event type '" + std::string(fields[2]) +
                     "'");
  }
  const std::string_view downtime_field = fields[3];
  if (downtime_field.empty() || downtime_field.back() != 's') {
    throw ParseError("bad downtime '" + std::string(downtime_field) +
                     "' (want <seconds>s)");
  }
  FailureRecord record;
  record.start = static_cast<Seconds>(parse_i64(fields[0]));
  parse_node_path(fields[1], record);
  const std::int64_t downtime =
      parse_i64(downtime_field.substr(0, downtime_field.size() - 1));
  if (downtime < 0) throw ValidationError("negative downtime");
  if (record.start > std::numeric_limits<Seconds>::max() - downtime) {
    throw ParseError("downtime '" + std::string(downtime_field) +
                     "' ends past the last representable time");
  }
  record.end = record.start + downtime;
  record.workload = static_cast<Workload>(
      index_of_token(kWorkloadTokens, fields[4], "workload"));
  const std::string_view cause_field = fields[5];
  const std::size_t slash = cause_field.find('/');
  if (slash == std::string_view::npos) {
    throw ParseError("bad cause '" + std::string(cause_field) +
                     "' (want <CAT>/<sub>)");
  }
  record.cause = kAllRootCauses[index_of_token(
      kCauseTokens, cause_field.substr(0, slash), "cause")];
  record.detail = static_cast<DetailCause>(index_of_token(
      kDetailTokens, cause_field.substr(slash + 1), "detail cause"));
  validate_adapted(record);
  return record;
}

}  // namespace hpcfail::trace::adapters
