#include "common/csv.hpp"

#include <istream>
#include <sstream>

#include "common/error.hpp"

namespace hpcfail {

CsvReader::CsvReader(std::istream& source, char separator)
    : in_(source), sep_(separator) {}

bool CsvReader::next_row(std::vector<std::string>& fields) {
  fields.clear();
  int ch = in_.get();
  if (ch == std::istream::traits_type::eof()) return false;
  ++line_;
  row_start_line_ = line_;

  std::string field;
  bool quoted = false;
  // A trailing '\r' is a CRLF line ending only when it arrived outside
  // quotes; a '\r' pushed inside quotes (written by csv_escape) is field
  // data — even when more unquoted characters follow the closing quote,
  // so this tracks the provenance of the *current last* character, not
  // whether the field started quoted.
  bool trailing_cr_is_data = false;
  const auto strip_cr = [&field, &trailing_cr_is_data] {
    if (!trailing_cr_is_data && !field.empty() && field.back() == '\r') {
      field.pop_back();
    }
  };
  for (;; ch = in_.get()) {
    if (ch == std::istream::traits_type::eof()) {
      if (quoted) {
        throw ParseError("unterminated quoted CSV field starting at line " +
                         std::to_string(row_start_line_));
      }
      // A CRLF file whose last line lacks the final newline still ends
      // the field with '\r'; strip it exactly as the '\n' path does.
      strip_cr();
      fields.push_back(std::move(field));
      return true;
    }
    const char c = static_cast<char>(ch);
    if (quoted) {
      if (c == '"') {
        if (in_.peek() == '"') {
          in_.get();
          field.push_back('"');
          trailing_cr_is_data = false;
        } else {
          quoted = false;
        }
      } else {
        if (c == '\n') ++line_;
        field.push_back(c);
        trailing_cr_is_data = (c == '\r');
      }
      continue;
    }
    if (c == '"' && field.empty()) {
      quoted = true;
    } else if (c == sep_) {
      fields.push_back(std::move(field));
      field.clear();
      trailing_cr_is_data = false;
    } else if (c == '\n') {
      strip_cr();
      fields.push_back(std::move(field));
      return true;
    } else {
      field.push_back(c);
      trailing_cr_is_data = false;
    }
  }
}

bool CsvLineSplitter::next(std::string_view& field) {
  if (done_) return false;
  // Consumes the field ending at `end` and the separator after it.
  const auto consume = [this](std::size_t end) {
    if (end >= rest_.size()) {
      done_ = true;
      rest_ = {};
    } else {
      rest_.remove_prefix(end + 1);
    }
  };
  if (rest_.empty() || rest_.front() != '"') {
    const std::size_t end = rest_.find(sep_);
    field = rest_.substr(0, end);
    consume(end);
    return true;
  }
  // Unescaping never yields more bytes than it reads, so reserving the
  // rest of the line once keeps earlier quoted fields' views valid.
  if (unquoted_.empty()) unquoted_.reserve(rest_.size());
  const std::size_t begin = unquoted_.size();
  std::size_t i = 1;
  for (;; ++i) {
    if (i >= rest_.size()) {
      done_ = unterminated_ = true;
      return false;
    }
    if (rest_[i] == '"') {
      if (i + 1 >= rest_.size() || rest_[i + 1] != '"') break;
      ++i;  // "" is one literal quote
    }
    unquoted_ += rest_[i];
  }
  const std::size_t end = rest_.find(sep_, i + 1);
  unquoted_ += rest_.substr(i + 1, end - i - 1);  // npos: to the end
  field = std::string_view(unquoted_).substr(begin);
  consume(end);
  return true;
}

std::vector<std::vector<std::string>> parse_csv(std::string_view text,
                                                char separator) {
  std::istringstream in{std::string(text)};
  CsvReader reader(in, separator);
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> row;
  while (reader.next_row(row)) rows.push_back(row);
  return rows;
}

}  // namespace hpcfail
