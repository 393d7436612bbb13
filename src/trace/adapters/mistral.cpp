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

/// Parses "YYYY-MM-DDTHH:MM:SS" by rewriting the 'T' in a copy and
/// delegating to the native timestamp parser.
Seconds parse_iso_timestamp(std::string_view text) {
  if (text.size() != 19 || text[10] != 'T') {
    throw ParseError("bad timestamp '" + std::string(text) +
                     "' (want YYYY-MM-DDTHH:MM:SS)");
  }
  std::array<char, 19> spaced{};
  text.copy(spaced.data(), spaced.size());
  spaced[10] = ' ';
  return parse_timestamp(std::string_view(spaced.data(), spaced.size()));
}

void append_iso_timestamp(std::string& out, Seconds t) {
  const std::size_t at = out.size();
  append_timestamp(out, t);
  out[at + 10] = 'T';
}

/// One host-style id, "<prefix><system><sep><node>", and the field names
/// its errors report.
struct IdSyntax {
  char prefix;
  char sep;
  std::string_view what;
  std::string_view system_field;
  std::string_view node_field;
};

constexpr IdSyntax kHost{'m', 'n', "host", "host system", "host node"};
constexpr IdSyntax kJobId{'j', '-', "job_id", "job_id system", "job_id node"};

void parse_ids(std::string_view text, const IdSyntax& syntax, int& system_id,
               int& node_id) {
  const auto bad = [&]() -> ParseError {
    return ParseError("bad " + std::string(syntax.what) + " '" +
                      std::string(text) + "' (want " + syntax.prefix +
                      "<system>" + syntax.sep + "<node>)");
  };
  if (text.size() < 4 || text.front() != syntax.prefix) throw bad();
  const std::size_t at = text.find(syntax.sep, 1);
  if (at == std::string_view::npos || at + 1 >= text.size()) throw bad();
  system_id = parse_id(text.substr(1, at - 1), syntax.system_field);
  node_id = parse_id(text.substr(at + 1), syntax.node_field);
}

}  // namespace

void MistralAdapter::format_line(const FailureRecord& record,
                                 std::string& out) const {
  out += 'j';
  append_int(out, record.system_id);
  out += '-';
  append_int(out, record.node_id);
  out += ",m";
  append_int(out, record.system_id);
  out += 'n';
  append_int(out, record.node_id);
  out += ',';
  append_iso_timestamp(out, record.start);
  out += ',';
  append_iso_timestamp(out, record.end);
  out += ',';
  out += token_for(kStateTokens, cause_index(record.cause));
  out += ',';
  out += token_for(kReasonTokens, static_cast<std::size_t>(record.detail));
  out += ',';
  out += token_for(kPartitionTokens, static_cast<std::size_t>(record.workload));
}

FailureRecord MistralAdapter::parse_line(std::string_view line) const {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  std::array<std::string_view, 7> fields;
  const std::size_t count = split_fields(line, ',', fields);
  if (count != fields.size()) {
    throw ParseError("expected 7 comma-separated fields, got " +
                     std::to_string(count));
  }
  FailureRecord record;
  parse_ids(fields[1], kHost, record.system_id, record.node_id);
  int job_system = 0;
  int job_node = 0;
  parse_ids(fields[0], kJobId, job_system, job_node);
  if (job_system != record.system_id || job_node != record.node_id) {
    throw ValidationError("job_id '" + std::string(fields[0]) +
                          "' does not match host '" + std::string(fields[1]) +
                          "'");
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
