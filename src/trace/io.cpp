#include "trace/io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace hpcfail::trace {

namespace {

constexpr std::size_t kBlockBytes = 64 * 1024;
constexpr std::size_t kWindowBytes = 8 * 1024 * 1024;

}  // namespace

const char* const kCsvHeader = "system,node,start,end,workload,cause,detail";

void write_csv(std::ostream& out, const FailureDataset& dataset,
               const Adapter& format) {
  std::string text(format.header());
  text += '\n';
  for (const FailureRecord& r : dataset.records()) {
    format.format_line(r, text);
    text += '\n';
    if (text.size() >= kBlockBytes) {
      out.write(text.data(), static_cast<std::streamsize>(text.size()));
      text.clear();
    }
  }
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (obs::enabled()) {
    obs::registry().counter("csv.rows_written").add(dataset.size());
  }
}

void write_csv_file(const std::string& path, const FailureDataset& dataset,
                    const Adapter& format) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open '" + path + "' for writing");
  write_csv(out, dataset, format);
  out.flush();  // the destructor's flush would swallow a full disk
  if (!out) throw IoError("write failed for '" + path + "'");
}

namespace {

/// A window whose lines average fewer bytes than this goes through one
/// LineSource: a slice is sized by lines and zero-filled, 27 bytes a row,
/// before its piece parses, so blank lines would cost as much as records.
/// Slices hold at most 27 bytes per 16 bytes of a window's text.
constexpr std::size_t kMinPieceLineBytes = 16;

/// One line-aligned piece of a window, parsed by its own LineSource into
/// its own slice of the result columns.
struct Piece {
  std::string_view bytes;
  std::uint64_t lines = 0;      ///< lines it frames
  std::uint64_t first_line = 0;  ///< lines of the stream before it
  std::size_t first_row = 0;    ///< its slice starts at this row
  std::size_t rows = 0;         ///< records it wrote there
  SourceCounters counters;
  std::string error;            ///< strict mode: its first bad line
  bool validation_error = false;  ///< `error` was a ValidationError
};

/// The lines `bytes` frames: its '\n's, and a last line without one.
std::uint64_t count_lines(std::string_view bytes) {
  if (bytes.empty()) return 0;
  std::uint64_t lines = bytes.back() != '\n' ? 1 : 0;
  const char* at = bytes.data();
  const char* const end = at + bytes.size();
  while ((at = static_cast<const char*>(std::memchr(
              at, '\n', static_cast<std::size_t>(end - at)))) != nullptr) {
    ++lines;
    ++at;
  }
  return lines;
}

/// Feeds `bytes` to `source` a block at a time, so its buffer holds at
/// most one block plus the partial line before it, passing each record
/// to `emit`.
template <typename Emit>
void feed_blocks(LineSource& source, std::string_view bytes, Emit&& emit) {
  FailureRecord record;
  for (std::size_t at = 0; at < bytes.size(); at += kBlockBytes) {
    source.feed(bytes.substr(at, kBlockBytes));
    while (source.next(record) == SourceStatus::event) emit(record);
  }
}

/// The reader's running state: the result columns, the lines framed so
/// far, and the counters accumulated in line order.
struct Reader {
  Reader(const Adapter& f, LineSource::OnError e) : format(f), on_error(e) {}

  const Adapter& format;
  LineSource::OnError on_error;
  ColumnStore columns;
  std::uint64_t lines = 0;
  SourceCounters counters;

  void add(const SourceCounters& c) {
    counters.accepted += c.accepted;
    counters.rejected += c.rejected;
    if (c.rejected > 0) counters.last_error = c.last_error;
  }

  /// Parses whole lines (the last one unterminated only at end of
  /// stream) in about 2 x parallelism() pieces on the pool. Each piece's
  /// lines are counted first, which numbers its lines and sizes its
  /// slice; the slices are then compacted over the blank, header and
  /// rejected lines, in piece order. At parallelism 1, and in a window
  /// of lines shorter than kMinPieceLineBytes on average, one LineSource
  /// appends the records instead.
  void parse_window(std::string_view text) {
    if (parallelism() == 1) {
      parse_one_feed(text, no_more);
      return;
    }
    std::vector<Piece> pieces(2 * static_cast<std::size_t>(parallelism()));
    std::size_t begin = 0;
    for (std::size_t k = 0; k < pieces.size(); ++k) {
      std::size_t end = text.size();
      const std::size_t target = text.size() * (k + 1) / pieces.size();
      if (k + 1 < pieces.size() && target <= begin) {
        end = begin;  // the piece before ran past this one's share
      } else if (k + 1 < pieces.size()) {
        const std::size_t nl = text.find('\n', target - 1);
        end = nl == std::string_view::npos ? text.size() : nl + 1;
      }
      pieces[k].bytes = text.substr(begin, end - begin);
      begin = end;
    }
    parallel_for(pieces.size(), [&pieces](std::size_t k) {
      pieces[k].lines = count_lines(pieces[k].bytes);
    });
    const std::size_t base = columns.size();
    std::uint64_t window_lines = 0;
    for (Piece& piece : pieces) {
      piece.first_line = lines + window_lines;
      piece.first_row = base + static_cast<std::size_t>(window_lines);
      window_lines += piece.lines;
    }
    if (window_lines > text.size() / kMinPieceLineBytes) {
      parse_one_feed(text, no_more);
      return;
    }
    columns.resize(base + static_cast<std::size_t>(window_lines));

    // A strict piece keeps its first bad line's message, and the caller's
    // thread throws the lowest piece's: no exception object is shared
    // between threads (ThreadSanitizer cannot see libstdc++'s exception
    // reference count, and reports a rethrown one's destruction as a race).
    parallel_for(pieces.size(), [this, &pieces](std::size_t k) {
      Piece& piece = pieces[k];
      LineSource source(format, on_error, piece.first_line);
      std::size_t row = piece.first_row;
      const auto put = [this, &row](const FailureRecord& r) {
        columns.set_row(row++, r);
      };
      try {
        feed_blocks(source, piece.bytes, put);
        source.finish();
        FailureRecord record;
        while (source.next(record) == SourceStatus::event) put(record);
      } catch (const ParseError& e) {
        piece.error = e.what();
      } catch (const ValidationError& e) {
        piece.error = e.what();
        piece.validation_error = true;
      }
      piece.rows = row - piece.first_row;
      piece.counters = source.counters();
    });
    for (const Piece& piece : pieces) {
      if (piece.error.empty()) continue;
      if (piece.validation_error) throw ValidationError(piece.error);
      throw ParseError(piece.error);
    }

    std::size_t kept = base;
    for (const Piece& piece : pieces) {
      if (piece.first_row != kept) {
        ColumnStore::for_each_column([&](auto column, auto) {
          auto& c = columns.*column;
          const auto from =
              c.begin() + static_cast<std::ptrdiff_t>(piece.first_row);
          std::copy(from, from + static_cast<std::ptrdiff_t>(piece.rows),
                    c.begin() + static_cast<std::ptrdiff_t>(kept));
        });
      }
      kept += piece.rows;
      add(piece.counters);
    }
    columns.resize(kept);
    lines += window_lines;
  }

  static std::string_view no_more() { return {}; }

  /// One LineSource, numbered on from the lines read so far, fed `text`
  /// and then every block `more` returns until one is empty, a block at
  /// a time; it appends its records and throws a strict read's first bad
  /// line itself.
  template <typename More>
  void parse_one_feed(std::string_view text, More&& more) {
    LineSource source(format, on_error, lines);
    const auto push = [this](const FailureRecord& r) { columns.push_back(r); };
    for (std::string_view bytes = text; !bytes.empty(); bytes = more()) {
      feed_blocks(source, bytes, push);
    }
    source.finish();
    FailureRecord record;
    while (source.next(record) == SourceStatus::event) push(record);
    lines += source.lines();
    add(source.counters());
  }
};

}  // namespace

FailureDataset read_csv(std::istream& in, const Adapter& format,
                        SourceCounters* counters) {
  return detail::read_csv_windowed(in, format, counters, kWindowBytes);
}

FailureDataset detail::read_csv_windowed(std::istream& in,
                                         const Adapter& format,
                                         SourceCounters* counters,
                                         std::size_t window_bytes,
                                         std::size_t* column_bytes) {
  HPCFAIL_EXPECTS(window_bytes > 0, "read window must hold a byte");
  const auto window = std::make_unique_for_overwrite<char[]>(window_bytes);
  std::size_t len = 0;  // bytes in the window
  bool at_end = false;
  const auto fill = [&] {
    const std::size_t want = window_bytes - len;
    in.read(window.get() + len, static_cast<std::streamsize>(want));
    const auto got = static_cast<std::size_t>(in.gcount());
    len += got;
    at_end = got < want;
  };
  fill();
  if (len == 0) throw ParseError("empty trace file (missing header)");
  // The header is the first line, read as far as the first block.
  const std::string_view head(window.get(), std::min(len, kBlockBytes));
  const std::string_view first = head.substr(0, head.find('\n'));
  if (!is_header(format, first)) {
    throw ParseError("unexpected trace header: '" +
                     std::string(trim_view(first)) + "'");
  }

  Reader reader(format, counters == nullptr ? LineSource::OnError::throw_
                                            : LineSource::OnError::reject);
  while (true) {
    const std::string_view text(window.get(), len);
    if (at_end) {
      reader.parse_window(text);
      break;
    }
    const std::size_t last_nl = text.rfind('\n');
    if (last_nl == std::string_view::npos) {
      // A line longer than the window: it and the rest of the stream go
      // through one LineSource a block at a time, as a stream of any size
      // always could, read into the window once its text is fed.
      const std::span<char> block(window.get(),
                                  std::min(window_bytes, kBlockBytes));
      reader.parse_one_feed(text, [&in, block] {
        in.read(block.data(), static_cast<std::streamsize>(block.size()));
        return std::string_view(block.data(),
                                static_cast<std::size_t>(in.gcount()));
      });
      break;
    }
    // Whole lines now; the partial line after them opens the next window.
    reader.parse_window(text.substr(0, last_nl + 1));
    len -= last_nl + 1;
    std::memmove(window.get(), window.get() + last_nl + 1, len);
    fill();
  }

  // Growth by doubling left spare capacity; hold only the rows. No
  // column has shrunk before this, so its capacity here is the most it
  // held.
  ColumnStore& columns = reader.columns;
  if (column_bytes != nullptr) *column_bytes = columns.bytes();
  ColumnStore::for_each_column(
      [&columns](auto column, auto) { (columns.*column).shrink_to_fit(); });
  if (counters != nullptr) *counters = reader.counters;
  if (obs::enabled()) {
    obs::registry().counter("csv.rows_read").add(reader.lines);
  }
  return FailureDataset::from_columns(std::move(columns));
}

FailureDataset read_csv_file(const std::string& path, const Adapter& format,
                             SourceCounters* counters) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open '" + path + "' for reading");
  return read_csv(in, format, counters);
}

}  // namespace hpcfail::trace
