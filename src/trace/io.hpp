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
FailureDataset read_csv(std::istream& in,
                        const Adapter& format = native_format(),
                        SourceCounters* counters = nullptr);

/// Reads from a file; throws IoError when the file cannot be opened.
FailureDataset read_csv_file(const std::string& path,
                             const Adapter& format = native_format(),
                             SourceCounters* counters = nullptr);

}  // namespace hpcfail::trace
