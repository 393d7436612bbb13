#include "trace/io.hpp"

#include <fstream>
#include <istream>
#include <ostream>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "obs/metrics.hpp"

namespace hpcfail::trace {

namespace {

constexpr std::size_t kBlockBytes = 64 * 1024;

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

FailureDataset read_csv(std::istream& in, const Adapter& format,
                        SourceCounters* counters) {
  std::string block(kBlockBytes, '\0');
  const auto read_block = [&in, &block] {
    in.read(block.data(), static_cast<std::streamsize>(block.size()));
    return std::string_view(block.data(),
                            static_cast<std::size_t>(in.gcount()));
  };
  std::string_view bytes = read_block();
  if (bytes.empty()) throw ParseError("empty trace file (missing header)");
  const std::string_view first = bytes.substr(0, bytes.find('\n'));
  if (!is_header(format, first)) {
    throw ParseError("unexpected trace header: '" +
                     std::string(trim_view(first)) + "'");
  }

  LineSource source(format, counters == nullptr ? LineSource::OnError::throw_
                                                : LineSource::OnError::reject);
  ColumnStore columns;
  FailureRecord record;
  const auto drain = [&] {
    while (source.next(record) == SourceStatus::event) {
      columns.push_back(record);
    }
  };
  for (; !bytes.empty(); bytes = read_block()) {
    source.feed(bytes);
    drain();
  }
  source.finish();
  drain();

  if (counters != nullptr) *counters = source.counters();
  if (obs::enabled()) {
    obs::registry().counter("csv.rows_read").add(source.lines());
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
