#include "report/series.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"

namespace hpcfail::report {
namespace {

TEST(SeriesCsv, WritesColumnsSideBySide) {
  std::ostringstream out;
  write_series_csv(out, {
                            {"hour", {0.0, 1.0, 2.0}},
                            {"failures", {10.0, 20.0, 15.0}},
                        });
  const auto rows = hpcfail::parse_csv(out.str());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"hour", "failures"}));
  EXPECT_EQ(rows[1][0], "0");
  EXPECT_EQ(rows[2][1], "20");
}

TEST(SeriesCsv, PadsShortColumnsWithEmptyCells) {
  std::ostringstream out;
  write_series_csv(out, {
                            {"x", {1.0, 2.0, 3.0}},
                            {"y", {9.0}},
                        });
  const auto rows = hpcfail::parse_csv(out.str());
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_EQ(rows[2][1], "");
  EXPECT_EQ(rows[3][1], "");
}

TEST(SeriesCsv, PreservesPrecision) {
  std::ostringstream out;
  write_series_csv(out, {{"v", {0.123456789012}}});
  const auto rows = hpcfail::parse_csv(out.str());
  EXPECT_EQ(rows[1][0].substr(0, 10), "0.12345678");
}

TEST(SeriesCsv, RejectsNoColumns) {
  std::ostringstream out;
  EXPECT_THROW(write_series_csv(out, {}), InvalidArgument);
}

TEST(SeriesCsv, FileWriterCreatesReadableFile) {
  const std::string path = ::testing::TempDir() + "/hpcfail_series.csv";
  write_series_csv_file(path, {{"a", {1.0}}});
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "a");
  EXPECT_THROW(write_series_csv_file("/nonexistent/x.csv", {{"a", {}}}),
               Error);
}

TEST(SeriesCsv, FileWriterReportsAFullDisk) {
  if (!std::ofstream("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_THROW(write_series_csv_file("/dev/full", {{"a", {1.0, 2.0}}}),
               IoError);
}

}  // namespace
}  // namespace hpcfail::report
