// Trace record formats: bijective mappings between FailureRecord and one
// line of an on-disk/wire schema. native_format() is the LANL-shaped CSV
// row of trace/io.hpp; the registry (all_adapters()) holds the schemas of
// other public HPC failure studies. Every format renders a record as
// exactly one line and parses one line back; format_line/parse_line are
// exact inverses, so a native record survives a round trip through any
// schema bit-identically (the testkit property battery pins this per
// format).
//
// Error taxonomy: parse_line throws ParseError for malformed lines (wrong
// field count, bad numbers or timestamps, unknown vocabulary tokens).
// Foreign formats throw ValidationError for well-formed lines that fail
// semantic checks (repair interval ending before it starts, cause/detail
// category mismatch, redundant fields that disagree); the native format
// reports those as ParseError too, as the LANL-schema reader always has.
// Streaming ingest (LineSource, `hpcfail serve --format <name>`) flattens
// both into reject-and-count; strict batch reads (read_csv) add a "line
// N:" prefix and rethrow the same type.
#pragma once

#include <span>
#include <string>
#include <string_view>

#include "trace/record.hpp"

namespace hpcfail::trace {

/// One trace schema: a named, line-oriented, bijective encoding of
/// FailureRecord. Implementations are stateless immutable singletons,
/// safe to share across threads.
class Adapter {
 public:
  virtual ~Adapter() = default;

  /// "native", or the registry key ("lu", "mistral", "tan") that is also
  /// the CLI --format value.
  virtual std::string_view name() const noexcept = 0;

  /// Header line written at the top of the format's files, required as
  /// the first line of a batch read and skipped anywhere else. Its first
  /// byte is visible and neither a quote nor a comma, which lets
  /// LineSource rule the header out of most lines by their first byte.
  virtual std::string_view header() const noexcept = 0;

  /// Appends one record as one line (no trailing newline) to `out`, so a
  /// writer formats every row into one buffer. Total: every consistent
  /// record is representable.
  virtual void format_line(const FailureRecord& record,
                           std::string& out) const = 0;

  /// Parses one line (a trailing '\r' is tolerated). Exact inverse of
  /// format_line on its image. Throws per the taxonomy above. Must be a
  /// pure function of the one line: read_csv parses pieces of a file on
  /// several threads at once, each from its first line on, so no line may
  /// depend on the lines before it. A format whose records span lines
  /// would need the one-LineSource path.
  virtual FailureRecord parse_line(std::string_view line) const = 0;
};

/// The native CSV row (system,node,start,end,workload,cause,detail). Not
/// listed in all_adapters(): it is the default, not a --format value.
const Adapter& native_format() noexcept;

/// Every registered foreign adapter, ascending by name. Immutable
/// singletons.
std::span<const Adapter* const> all_adapters() noexcept;

/// The registered names joined with ", " (for --help and error messages).
std::string adapter_names();

/// Looks an adapter up by name. Throws ValidationError listing the known
/// names on a miss.
const Adapter& adapter_for(std::string_view name);

/// Parses a system or node id: an integer that fits in `int`, so an id
/// outside it cannot alias another. Throws ParseError naming `field` and
/// the text otherwise.
int parse_id(std::string_view text, std::string_view field);

/// Semantic checks shared by every foreign adapter's parse path: positive
/// system id, non-negative node id, end >= start, detail belonging to the
/// cause's category. Throws ValidationError with a field-specific
/// message.
void validate_adapted(const FailureRecord& record);

}  // namespace hpcfail::trace
