// The native trace format: the LANL-shaped CSV row of trace/io.hpp,
//
//   system,node,start,end,workload,cause,detail
//   2,0,1996-06-07 08:48:45,1996-06-07 08:55:14,compute,human,operator_error
//
// Fields are split by CsvLineSplitter with CsvReader's RFC 4180 quoting,
// so a quoted row on one line reads exactly as the batch reader always
// read it. Ids and timestamps are trimmed; workload/cause/detail are
// parsed case-insensitively.
// Every error, inconsistent records included, is a ParseError.
#include "trace/adapters/adapter.hpp"

#include <array>
#include <string>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/time.hpp"
#include "trace/io.hpp"
#include "trace/types.hpp"

namespace hpcfail::trace {

namespace {

/// Space, tab, CR and LF only, not trim_view's isspace set: ids and
/// timestamps with a '\v' or '\f' have always been rejected.
std::string_view trim_field(std::string_view s) noexcept {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' ||
                        s.front() == '\r' || s.front() == '\n')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r' || s.back() == '\n')) {
    s.remove_suffix(1);
  }
  return s;
}

class NativeFormat final : public Adapter {
 public:
  std::string_view name() const noexcept override { return "native"; }
  std::string_view header() const noexcept override { return kCsvHeader; }

  void format_line(const FailureRecord& r, std::string& out) const override {
    append_int(out, r.system_id);
    out += ',';
    append_int(out, r.node_id);
    out += ',';
    append_timestamp(out, r.start);
    out += ',';
    append_timestamp(out, r.end);
    out += ',';
    out += name_of(r.workload);
    out += ',';
    out += name_of(r.cause);
    out += ',';
    out += name_of(r.detail);
  }

  FailureRecord parse_line(std::string_view line) const override {
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    CsvLineSplitter splitter(line);
    std::array<std::string_view, 7> f;
    std::size_t count = 0;
    for (std::string_view field; splitter.next(field); ++count) {
      if (count < f.size()) f[count] = field;
    }
    if (splitter.unterminated()) {
      throw ParseError("unterminated quoted CSV field");
    }
    if (count != f.size()) {
      throw ParseError("expected 7 fields, got " + std::to_string(count));
    }
    FailureRecord r;
    r.system_id = parse_id(trim_field(f[0]), "system id");
    r.node_id = parse_id(trim_field(f[1]), "node id");
    r.start = parse_timestamp(trim_field(f[2]));
    r.end = parse_timestamp(trim_field(f[3]));
    r.workload = workload_from_string(f[4]);
    r.cause = root_cause_from_string(f[5]);
    r.detail = detail_cause_from_string(f[6]);
    if (!r.is_consistent()) {
      throw ParseError("inconsistent record (end < start, bad ids, or "
                       "cause/detail mismatch)");
    }
    return r;
  }
};

}  // namespace

const Adapter& native_format() noexcept {
  static const NativeFormat native;
  return native;
}

}  // namespace hpcfail::trace
