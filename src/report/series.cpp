#include "report/series.hpp"

#include <fstream>
#include <ostream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"

namespace hpcfail::report {

void write_series_csv(std::ostream& out,
                      const std::vector<Column>& columns) {
  HPCFAIL_EXPECTS(!columns.empty(), "series export with no columns");
  CsvWriter writer(out);
  std::vector<std::string> row;
  row.reserve(columns.size());
  for (const Column& c : columns) row.push_back(c.name);
  writer.write_row(row);

  std::size_t length = 0;
  for (const Column& c : columns) length = std::max(length, c.values.size());
  for (std::size_t i = 0; i < length; ++i) {
    row.clear();
    for (const Column& c : columns) {
      row.push_back(i < c.values.size()
                        ? hpcfail::format_double(c.values[i], 10)
                        : std::string());
    }
    writer.write_row(row);
  }
}

void write_series_csv_file(const std::string& path,
                           const std::vector<Column>& columns) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open '" + path + "' for writing");
  write_series_csv(out, columns);
  out.flush();  // the destructor's flush would swallow a full disk
  if (!out) throw IoError("write failed for '" + path + "'");
}

}  // namespace hpcfail::report
