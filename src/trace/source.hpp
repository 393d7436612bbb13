// Pull-based event sources: the one ingest surface behind the batch
// readers (read_csv) and the streaming daemon (`hpcfail serve`).
//
// A Source yields FailureRecords one at a time: `event`, `end`, or —
// while a streaming source has no complete event *yet* — `idle`, and the
// caller polls again later.
//
// LineSource is the only layer that frames lines. It cuts pushed bytes at
// '\n', skips blank lines and its format's header lines (is_header), and
// hands every other line to the format's parse_line
// (trace/adapters/adapter.hpp; the native CSV row unless told otherwise).
// A bad line is handled per the source's OnError policy: strict batch
// reads rethrow its ParseError/ValidationError prefixed with "line N:";
// lenient reads and the daemon reject-and-count, so one bad line never
// takes the daemon down (counters() exposes accepted/rejected totals and
// the last rejection message). A line longer than kMaxLineBytes is one
// bad line: rejected as soon as it outgrows the limit and skipped to its
// newline, so a producer that never sends '\n' cannot grow the buffer
// without bound. TailSource feeds a LineSource from a file that other
// processes append to.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "trace/adapters/adapter.hpp"
#include "trace/record.hpp"

namespace hpcfail::trace {

/// Longest line a LineSource parses, and the most TailSource reads per
/// poll.
inline constexpr std::size_t kMaxLineBytes = 64 * 1024;

/// Result of one Source::next() poll.
enum class SourceStatus {
  event,  ///< `out` holds a valid record
  idle,   ///< no complete event available yet; poll again later
  end,    ///< the source is exhausted; no further events will arrive
};

/// Ingest accounting shared by every source.
struct SourceCounters {
  std::uint64_t accepted = 0;  ///< records successfully parsed
  std::uint64_t rejected = 0;  ///< malformed lines dropped (reject policy)
  std::string last_error;      ///< message of the most recent rejection
};

/// Abstract pull-based event iterator.
class Source {
 public:
  virtual ~Source() = default;

  /// Advances to the next record. Returns `event` and fills `out`, or
  /// `idle`/`end` per the source's contract. Strict sources may throw
  /// instead of rejecting.
  virtual SourceStatus next(FailureRecord& out) = 0;

  /// Accept/reject accounting since construction.
  virtual const SourceCounters& counters() const noexcept {
    return counters_;
  }

 protected:
  SourceCounters counters_;
};

/// True when `line` is `format`'s header: its comma-separated fields,
/// unquoted and trimmed, equal the header's fields.
bool is_header(const Adapter& format, std::string_view line);

/// Line source fed by pushed byte chunks (the TCP ingest path, the tailed
/// file and the batch readers). feed() appends raw bytes; next() yields
/// one record per complete '\n'-terminated line, `idle` when the buffer
/// holds no complete line, and `end` once finish() has been called and
/// the buffer is drained (a final unterminated line is still parsed).
class LineSource : public Source {
 public:
  enum class OnError {
    throw_,  ///< rethrow a bad line's error type, prefixed "line N: "
    reject,  ///< count the bad line and keep going
  };

  /// Lines are decoded by `format`, which must outlive the source.
  /// `lines_before` lines of the stream precede the first byte fed, so a
  /// source fed one piece of a stream numbers its "line N:" messages as
  /// a source fed the whole stream would.
  explicit LineSource(const Adapter& format = native_format(),
                      OnError on_error = OnError::reject,
                      std::uint64_t lines_before = 0) noexcept
      : format_(&format), on_error_(on_error), lines_before_(lines_before) {}

  /// Appends raw bytes (need not align with line boundaries).
  void feed(std::string_view bytes) { buffer_.append(bytes); }

  /// Declares end-of-stream; next() drains the remainder then returns
  /// `end`.
  void finish() noexcept { finished_ = true; }

  /// Discards all buffered (unconsumed) bytes and clears the finished
  /// flag — for owners that detect the underlying byte stream restarted
  /// (e.g. a followed file was rewritten), so a stale partial line never
  /// splices onto the new stream. Counters and line numbers persist.
  void reset() noexcept {
    buffer_.clear();
    pos_ = 0;
    finished_ = false;
    skipping_ = false;
  }

  SourceStatus next(FailureRecord& out) override;

  /// Lines framed so far, blank, header and rejected ones included; an
  /// over-long line counts once. `lines_before` is not included.
  std::uint64_t lines() const noexcept { return lines_; }

 private:
  /// Accounts for one framed line; true when it produced `out`.
  bool take(std::string_view line, FailureRecord& out);

  const Adapter* format_;
  OnError on_error_;
  std::uint64_t lines_before_;  ///< numbering base of "line N:" messages
  std::string buffer_;
  std::size_t pos_ = 0;       ///< start of the first unconsumed byte
  std::uint64_t lines_ = 0;   ///< lines consumed
  bool finished_ = false;
  bool skipping_ = false;     ///< dropping the rest of an over-long line
};

/// Follows a file that other processes append to (`tail -f` semantics).
/// Each next() that finds the inner buffer empty re-opens the file, seeks
/// past everything already consumed, and feeds at most kMaxLineBytes of
/// new bytes per poll; `idle` means no new data (or the file does not
/// exist yet). Never returns `end` — the caller decides when to stop
/// polling.
///
/// Rewrite detection: a size below the consumed offset alone misses the
/// truncate-then-regrow race (logrotate's copytruncate plus a fast
/// producer can push the new file past the old offset between polls, and
/// a same-size rewrite never shrinks at all). Each poll therefore also
/// compares the file's inode and its leading bytes against what was
/// tailed before; any mismatch restarts cleanly from offset 0 and drops
/// buffered partial-line bytes from the old file. A rewrite whose first
/// bytes are identical to the old file's (up to the signature length) on
/// the same inode is indistinguishable from an append and is read as
/// one — the protocol's header line makes that benign for event traces.
class TailSource : public Source {
 public:
  /// Lines are decoded by `format`, which must outlive the source.
  explicit TailSource(std::string path, std::uint64_t start_offset = 0,
                      const Adapter& format = native_format());

  SourceStatus next(FailureRecord& out) override;

  const SourceCounters& counters() const noexcept override {
    return lines_.counters();
  }

  /// Byte offset of the next read.
  std::uint64_t offset() const noexcept { return offset_; }

  /// Times a rewrite (truncation or replacement) was detected and the
  /// tail restarted from the top.
  std::uint64_t rewrites_detected() const noexcept { return rewrites_; }

 private:
  /// Reads newly appended bytes into the line buffer. Returns the byte
  /// count fed (0 when nothing new).
  std::size_t poll_file();

  std::string path_;
  std::uint64_t offset_ = 0;
  std::uint64_t inode_ = 0;     ///< 0 until the file is first seen
  std::string signature_;       ///< leading bytes of the tailed file
  std::uint64_t rewrites_ = 0;
  LineSource lines_;
};

}  // namespace hpcfail::trace
