// Trace file I/O in any record format (trace/adapters/adapter.hpp). The
// default is the native schema mirroring the public LANL release: one row
// per failure with system, node, start/end timestamps, workload, and root
// cause at both levels.
//
// Header: system,node,start,end,workload,cause,detail
// Timestamps are "YYYY-MM-DD HH:MM:SS" UTC. Every file opens with its
// format's header line; the reader validates every field and reports the
// line number of the first malformed row.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "trace/dataset.hpp"
#include "trace/source.hpp"

namespace hpcfail::trace {

/// The native header row.
extern const char* const kCsvHeader;

/// Writes the dataset in `format`: its header line, then one line per
/// record. Data rows count into the obs counter "csv.rows_written".
void write_csv(std::ostream& out, const FailureDataset& dataset,
               const Adapter& format = native_format());

/// Writes to a file; throws IoError when the file cannot be opened.
void write_csv_file(const std::string& path, const FailureDataset& dataset,
                    const Adapter& format = native_format());

/// Reads a dataset in `format`, whose header must be the first line; later
/// header lines and blank lines are skipped. With `counters == nullptr`
/// the first malformed line throws its ParseError (or, for a foreign
/// format, ValidationError) prefixed with "line N:"; otherwise malformed
/// lines are rejected and counted into `*counters` and the clean records
/// returned. A missing header is a ParseError either way. Every line read
/// counts into the obs counter "csv.rows_read".
///
/// The stream is read through one reused window of 8 MiB, cut after its
/// last '\n'; its lines are parsed in line-aligned pieces on the shared
/// pool (common/thread_pool.hpp) and joined in order, so the records, the
/// counters and the first error are those of one LineSource fed the whole
/// stream. At parallelism 1, and in a window whose lines average under 16
/// bytes, one LineSource parses the window. A line longer than the window
/// hands the rest of the stream to one LineSource.
FailureDataset read_csv(std::istream& in,
                        const Adapter& format = native_format(),
                        SourceCounters* counters = nullptr);

namespace detail {

/// read_csv through a window of `window_bytes` (> 0) instead of 8 MiB,
/// so tests can put the window's edges anywhere in a small input. The
/// header check reads the first line as far as the first window holds
/// it (64 KiB at most, as read_csv does), so the window should hold the
/// header line. A non-null `column_bytes` receives the most bytes the
/// result's columns held while reading (ColumnStore::bytes()).
FailureDataset read_csv_windowed(std::istream& in, const Adapter& format,
                                 SourceCounters* counters,
                                 std::size_t window_bytes,
                                 std::size_t* column_bytes = nullptr);

}  // namespace detail

/// Reads from a file; throws IoError when the file cannot be opened.
FailureDataset read_csv_file(const std::string& path,
                             const Adapter& format = native_format(),
                             SourceCounters* counters = nullptr);

}  // namespace hpcfail::trace
