#include "trace/source.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <fstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"

namespace hpcfail::trace {

namespace {

/// True when the comma-separated fields of `line` and `key`, unquoted and
/// trimmed, are equal.
bool same_fields(std::string_view line, std::string_view key) {
  CsvLineSplitter a(line);
  CsvLineSplitter b(key);
  std::string_view x;
  std::string_view y;
  while (true) {
    const bool more = a.next(x);
    if (more != b.next(y)) return false;
    if (!more) return !a.unterminated();
    if (trim_view(x) != trim_view(y)) return false;
  }
}

/// True when `line`'s first byte already rules out both a blank line and
/// `header`: trim_view keeps it, it opens no quote and no empty first
/// field, and it differs from the header's (visible) first byte.
bool neither_blank_nor_header(std::string_view line,
                              std::string_view header) noexcept {
  if (line.empty() || header.empty()) return false;
  const char first = line.front();
  return static_cast<unsigned char>(first) > ' ' && first != '"' &&
         first != ',' && first != header.front();
}

/// Strict sources rethrow a bad line's error type with its line number;
/// lenient ones count it.
template <typename E>
void reject(const E& error, std::uint64_t line, LineSource::OnError on_error,
            SourceCounters& counters) {
  std::string message = "line " + std::to_string(line) + ": " + error.what();
  if (on_error == LineSource::OnError::throw_) throw E(message);
  ++counters.rejected;
  counters.last_error = std::move(message);
}

}  // namespace

bool is_header(const Adapter& format, std::string_view line) {
  return same_fields(line, format.header());
}

bool LineSource::take(std::string_view line, FailureRecord& out) {
  if (skipping_) {  // the tail of a line already rejected as too long
    skipping_ = false;
    return false;
  }
  ++lines_;
  try {
    if (line.size() > kMaxLineBytes) {
      throw ParseError("line longer than " + std::to_string(kMaxLineBytes) +
                       " bytes");
    }
    if (!neither_blank_nor_header(line, format_->header()) &&
        (same_fields(line, "") || is_header(*format_, line))) {
      return false;
    }
    out = format_->parse_line(line);
    ++counters_.accepted;
    return true;
  } catch (const ParseError& e) {
    reject(e, lines_before_ + lines_, on_error_, counters_);
  } catch (const ValidationError& e) {
    reject(e, lines_before_ + lines_, on_error_, counters_);
  }
  return false;
}

SourceStatus LineSource::next(FailureRecord& out) {
  while (true) {
    const std::string_view rest = std::string_view(buffer_).substr(pos_);
    const std::size_t nl = rest.find('\n');
    if (nl != std::string_view::npos) {
      pos_ += nl + 1;
      if (take(rest.substr(0, nl), out)) return SourceStatus::event;
    } else if (finished_) {
      if (rest.empty()) return SourceStatus::end;
      pos_ = buffer_.size();  // final unterminated line
      if (take(rest, out)) return SourceStatus::event;
    } else {
      // Keep only the partial line. One that outgrows the limit is
      // rejected now and dropped up to its newline.
      buffer_.erase(0, pos_);
      pos_ = 0;
      if (buffer_.size() > kMaxLineBytes) {
        take(buffer_, out);
        buffer_.clear();
        skipping_ = true;
      }
      return SourceStatus::idle;
    }
  }
}

TailSource::TailSource(std::string path, std::uint64_t start_offset,
                       const Adapter& format)
    : path_(std::move(path)), offset_(start_offset), lines_(format) {}

std::size_t TailSource::poll_file() {
  constexpr std::size_t kSignatureBytes = 64;
  std::ifstream in(path_, std::ios::binary);
  if (!in) return 0;  // not created yet (or unreadable): stay idle
  in.seekg(0, std::ios::end);
  const auto size_pos = in.tellg();
  if (size_pos < 0) return 0;
  const auto size = static_cast<std::uint64_t>(size_pos);

  // Rewrite check (see the class comment): shrink below the consumed
  // offset, a different inode, or different leading bytes all mean the
  // path no longer continues the stream we were tailing.
  bool rewritten = size < offset_;
  struct stat st{};
  if (::stat(path_.c_str(), &st) == 0) {
    if (inode_ != 0 && static_cast<std::uint64_t>(st.st_ino) != inode_) {
      rewritten = true;
    }
    inode_ = static_cast<std::uint64_t>(st.st_ino);
  }
  std::string probe(
      static_cast<std::size_t>(std::min<std::uint64_t>(size, kSignatureBytes)),
      '\0');
  if (!probe.empty()) {
    in.seekg(0);
    in.read(probe.data(), static_cast<std::streamsize>(probe.size()));
    probe.resize(static_cast<std::size_t>(in.gcount()));
  }
  const std::size_t common = std::min(signature_.size(), probe.size());
  if (common > 0 && probe.compare(0, common, signature_, 0, common) != 0) {
    rewritten = true;
  }
  if (rewritten) {
    offset_ = 0;
    signature_ = probe;
    lines_.reset();  // drop stale partial-line bytes from the old file
    ++rewrites_;
  } else if (probe.size() > signature_.size()) {
    signature_ = probe;  // the file grew into the signature window
  }

  if (size == offset_) return 0;
  in.clear();  // the signature read may have hit EOF on short files
  in.seekg(static_cast<std::streamoff>(offset_));
  std::string chunk(
      static_cast<std::size_t>(std::min<std::uint64_t>(size - offset_,
                                                       kMaxLineBytes)),
      '\0');
  in.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
  const auto got = static_cast<std::size_t>(in.gcount());
  chunk.resize(got);
  offset_ += got;
  lines_.feed(chunk);
  return got;
}

SourceStatus TailSource::next(FailureRecord& out) {
  // The inner LineSource never ends (finish() is never called on it).
  while (true) {
    const SourceStatus status = lines_.next(out);
    if (status != SourceStatus::idle || poll_file() == 0) return status;
  }
}

}  // namespace hpcfail::trace
