// RFC-4180-style CSV reading.
//
// The public LANL failure-data release is distributed as CSV. Quoted
// fields may hold the separator, quotes (doubled) and newlines; fields are
// written with csv_escape (common/strings.hpp). CsvLineSplitter applies
// the reader's quoting rules to one line already framed by the caller (the
// trace line sources); CsvReader and parse_csv read whole documents and
// report the line number of any malformed row.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace hpcfail {

/// Streaming CSV reader over any std::istream.
class CsvReader {
 public:
  /// `source` must outlive the reader.
  explicit CsvReader(std::istream& source, char separator = ',');

  /// Reads the next row into `fields` (cleared first). Returns false at
  /// end of input. Throws ParseError on an unterminated quoted field.
  bool next_row(std::vector<std::string>& fields);

  /// 1-based line number of the most recently returned row.
  std::size_t line_number() const noexcept { return row_start_line_; }

 private:
  std::istream& in_;
  char sep_;
  std::size_t line_ = 0;
  std::size_t row_start_line_ = 0;
};

/// Splits one line (no '\n') into its fields with CsvReader's quoting
/// rules: a quote opens only at the start of a field, "" inside quotes is a
/// literal quote, and text after the closing quote is appended. Unquoted
/// fields are views into the line; quoted ones are unescaped into a buffer
/// the splitter owns, so every field stays valid while the splitter and
/// the line live. A quote that does not close ends the line.
class CsvLineSplitter {
 public:
  explicit CsvLineSplitter(std::string_view line,
                           char separator = ',') noexcept
      : rest_(line), sep_(separator) {}

  /// Stores the next field in `field`. Returns false after the last field,
  /// or at a quote that does not close (unterminated() then holds).
  bool next(std::string_view& field);

  bool unterminated() const noexcept { return unterminated_; }

 private:
  std::string_view rest_;
  char sep_;
  bool done_ = false;
  bool unterminated_ = false;
  std::string unquoted_;
};

/// Parses a full document in memory. Convenience for tests and small files.
std::vector<std::vector<std::string>> parse_csv(std::string_view text,
                                                char separator = ',');

}  // namespace hpcfail
