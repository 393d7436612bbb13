#include "trace/adapters/mistral.hpp"

#include <array>
#include <string>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/time.hpp"
#include "trace/adapters/token_map.hpp"
#include "trace/types.hpp"

namespace hpcfail::trace::adapters {

namespace {

// kAllRootCauses order.
constexpr std::array<std::string_view, 6> kStateTokens = {
    "FAILED_HW", "FAILED_SW", "FAILED_NET", "FAILED_ENV", "FAILED_OP",
    "FAILED_UNK"};

// DetailCause declaration order.
constexpr std::array<std::string_view, 16> kReasonTokens = {
    "dimm",   "cpu",     "interconnect", "psu",      "disk", "hw_other",
    "kernel", "lustre",  "slurm",        "sw_other", "switch", "nic",
    "power",  "cooling", "operator",     "unknown"};

// Workload declaration order.
constexpr std::array<std::string_view, 3> kPartitionTokens = {
    "compute", "visual", "login"};

/// Parses "YYYY-MM-DDTHH:MM:SS" by rewriting the 'T' and delegating to
/// the native timestamp parser.
Seconds parse_iso_timestamp(std::string_view text) {
  if (text.size() != 19 || text[10] != 'T') {
    throw ParseError("bad timestamp '" + std::string(text) +
                     "' (want YYYY-MM-DDTHH:MM:SS)");
  }
  std::string spaced(text);
  spaced[10] = ' ';
  return parse_timestamp(spaced);
}

std::string format_iso_timestamp(Seconds t) {
  std::string text = format_timestamp(t);
  text[10] = 'T';
  return text;
}

/// Splits "<prefix><system><sep><node>" host-style ids.
void parse_ids(std::string_view text, char prefix, char sep,
               std::string_view what, int& system_id, int& node_id) {
  const auto bad = [&]() -> ParseError {
    return ParseError("bad " + std::string(what) + " '" + std::string(text) +
                      "' (want " + prefix + "<system>" + sep + "<node>)");
  };
  if (text.size() < 4 || text.front() != prefix) throw bad();
  const std::size_t at = text.find(sep, 1);
  if (at == std::string_view::npos || at + 1 >= text.size()) throw bad();
  system_id = parse_id(text.substr(1, at - 1), std::string(what) + " system");
  node_id = parse_id(text.substr(at + 1), std::string(what) + " node");
}

}  // namespace

std::string MistralAdapter::format_line(const FailureRecord& record) const {
  std::string line = "j";
  line += std::to_string(record.system_id);
  line += '-';
  line += std::to_string(record.node_id);
  line += ",m";
  line += std::to_string(record.system_id);
  line += 'n';
  line += std::to_string(record.node_id);
  line += ',';
  line += format_iso_timestamp(record.start);
  line += ',';
  line += format_iso_timestamp(record.end);
  line += ',';
  line += token_for(kStateTokens, cause_index(record.cause));
  line += ',';
  line += token_for(kReasonTokens, static_cast<std::size_t>(record.detail));
  line += ',';
  line += token_for(kPartitionTokens,
                    static_cast<std::size_t>(record.workload));
  return line;
}

FailureRecord MistralAdapter::parse_line(std::string_view line) const {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  const std::vector<std::string> fields = split(line, ',');
  if (fields.size() != 7) {
    throw ParseError("expected 7 comma-separated fields, got " +
                     std::to_string(fields.size()));
  }
  FailureRecord record;
  parse_ids(fields[1], 'm', 'n', "host", record.system_id, record.node_id);
  int job_system = 0;
  int job_node = 0;
  parse_ids(fields[0], 'j', '-', "job_id", job_system, job_node);
  if (job_system != record.system_id || job_node != record.node_id) {
    throw ValidationError("job_id '" + fields[0] +
                          "' does not match host '" + fields[1] + "'");
  }
  record.start = parse_iso_timestamp(fields[2]);
  record.end = parse_iso_timestamp(fields[3]);
  record.cause =
      kAllRootCauses[index_of_token(kStateTokens, fields[4], "state")];
  record.detail = static_cast<DetailCause>(
      index_of_token(kReasonTokens, fields[5], "reason"));
  record.workload = static_cast<Workload>(
      index_of_token(kPartitionTokens, fields[6], "partition"));
  validate_adapted(record);
  return record;
}

}  // namespace hpcfail::trace::adapters
