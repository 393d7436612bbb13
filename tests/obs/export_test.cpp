// Exporter tests. The JSON test is a byte-exact golden: the layout is the
// schema (kMetricsSchemaVersion); change the layout and you must bump the
// version and update this test together.
#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "obs/metrics.hpp"

namespace hpcfail::obs {
namespace {

MetricsSnapshot sample_snapshot() {
  MetricsSnapshot snap;
  snap.counters.push_back({"csv.rows_read", 7});
  snap.gauges.push_back({"serve.events_per_sec", 0.5});
  MetricsSnapshot::HistogramValue h;
  h.name = "fit.seconds";
  h.count = 5;
  h.sum = 2.5;
  h.min = 0.1;
  h.max = 1.0;
  h.buckets = {{0.001, 2}, {1.0, 3}};
  snap.histograms.push_back(h);
  return snap;
}

TEST(JsonExport, GoldenLayout) {
  const std::string expected =
      "{\n"
      "  \"schema\": \"hpcfail.metrics\",\n"
      "  \"schema_version\": 2,\n"
      "  \"counters\": [\n"
      "    {\"name\": \"csv.rows_read\", \"value\": 7}\n"
      "  ],\n"
      "  \"gauges\": [\n"
      "    {\"name\": \"serve.events_per_sec\", \"value\": 0.5}\n"
      "  ],\n"
      "  \"histograms\": [\n"
      "    {\"name\": \"fit.seconds\", \"count\": 5, \"sum\": 2.5, "
      "\"min\": 0.1, \"max\": 1, \"buckets\": "
      "[{\"le\": 0.001, \"count\": 2}, {\"le\": 1, \"count\": 3}]}\n"
      "  ]\n"
      "}\n";
  EXPECT_EQ(to_json(sample_snapshot()), expected);
}

TEST(JsonExport, EmptySnapshotIsValid) {
  const std::string out = to_json(MetricsSnapshot{});
  EXPECT_NE(out.find("\"schema\": \"hpcfail.metrics\""), std::string::npos);
  EXPECT_NE(out.find("\"schema_version\": 2"), std::string::npos);
  EXPECT_NE(out.find("\"counters\": []"), std::string::npos);
  EXPECT_NE(out.find("\"histograms\": []\n}"), std::string::npos);
}

TEST(JsonExport, EscapesNamesAndIsDeterministic) {
  MetricsSnapshot snap;
  snap.counters.push_back({"weird\"name\\with\ttabs", 1});
  const std::string out = to_json(snap);
  EXPECT_NE(out.find("weird\\\"name\\\\with\\ttabs"), std::string::npos);
  EXPECT_EQ(out, to_json(snap));  // byte-deterministic
}

TEST(CsvExport, FlatSeriesRows) {
  const std::string out = to_csv(sample_snapshot());
  std::istringstream in(out);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "kind,name,field,value");
  std::getline(in, line);
  EXPECT_EQ(line, "counter,csv.rows_read,value,7");
  std::getline(in, line);
  EXPECT_EQ(line, "gauge,serve.events_per_sec,value,0.5");
  std::getline(in, line);
  EXPECT_EQ(line, "histogram,fit.seconds,count,5");
}

TEST(CsvExport, QuotesNamesWithCommas) {
  MetricsSnapshot snap;
  snap.counters.push_back({"x{a=1,b=2}", 4});
  const std::string out = to_csv(snap);
  EXPECT_NE(out.find("counter,\"x{a=1,b=2}\",value,4"), std::string::npos);
}

TEST(CsvExport, QuotesNamesWithLineBreaks) {
  MetricsSnapshot snap;
  snap.counters.push_back({"x{path=a\nb}", 4});
  snap.gauges.push_back({"y{path=c\rd}", 1});
  const std::string out = to_csv(snap);
  EXPECT_NE(out.find("counter,\"x{path=a\nb}\",value,4\n"),
            std::string::npos);
  EXPECT_NE(out.find("gauge,\"y{path=c\rd}\",value,1\n"),
            std::string::npos);
}

TEST(PrometheusExport, SanitizesNamesAndParsesLabels) {
  MetricsSnapshot snap;
  snap.counters.push_back({"synth.records_total", 100});
  snap.gauges.push_back({"synth.generate.records_per_sec", 2.5});
  MetricsSnapshot::HistogramValue h;
  h.name = "synth.shard_seconds{system=20}";
  h.count = 3;
  h.sum = 0.75;
  h.buckets = {{0.25, 1}, {1.0, 2}};
  snap.histograms.push_back(h);

  const std::string out = to_prometheus(snap);
  EXPECT_NE(out.find("# TYPE hpcfail_synth_records_total counter\n"
                     "hpcfail_synth_records_total 100\n"),
            std::string::npos);
  EXPECT_NE(out.find("hpcfail_synth_generate_records_per_sec 2.5\n"),
            std::string::npos);
  // Labels move out of the name, buckets are cumulative, +Inf closes.
  EXPECT_NE(out.find("hpcfail_synth_shard_seconds_bucket"
                     "{system=\"20\",le=\"0.25\"} 1\n"),
            std::string::npos);
  EXPECT_NE(out.find("hpcfail_synth_shard_seconds_bucket"
                     "{system=\"20\",le=\"1\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("hpcfail_synth_shard_seconds_bucket"
                     "{system=\"20\",le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(out.find("hpcfail_synth_shard_seconds_sum{system=\"20\"} "
                     "0.75\n"),
            std::string::npos);
  EXPECT_NE(out.find("hpcfail_synth_shard_seconds_count{system=\"20\"} "
                     "3\n"),
            std::string::npos);
}

// The text format allows one TYPE line per metric family, however many
// labelled series the family has.
TEST(PrometheusExport, WritesOneTypeLinePerFamily) {
  MetricsSnapshot snap;
  snap.counters.push_back({"serve.connections_refused{port=http}", 1});
  snap.counters.push_back({"serve.connections_refused{port=ingest}", 2});
  MetricsSnapshot::HistogramValue h;
  h.count = 1;
  h.sum = 4.0;
  h.buckets = {{4.0, 1}};
  h.name = "dist.fit.solver_steps{family=gamma}";
  snap.histograms.push_back(h);
  h.name = "dist.fit.solver_steps{family=weibull}";
  snap.histograms.push_back(h);

  const std::string out = to_prometheus(snap);
  const auto occurrences = [&out](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = out.find(needle); at != std::string::npos;
         at = out.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(occurrences("# TYPE "), 2u) << out;
  EXPECT_EQ(occurrences("# TYPE hpcfail_serve_connections_refused counter\n"),
            1u);
  EXPECT_EQ(occurrences("# TYPE hpcfail_dist_fit_solver_steps histogram\n"),
            1u);
  // Every series is still written, under its family's one TYPE line.
  EXPECT_NE(out.find("hpcfail_serve_connections_refused{port=\"http\"} 1\n"
                     "hpcfail_serve_connections_refused{port=\"ingest\"} 2\n"),
            std::string::npos);
  EXPECT_EQ(occurrences("hpcfail_dist_fit_solver_steps_count{family="), 2u);
}

TEST(ExportFormat, ParsesKnownNamesAndRejectsUnknown) {
  EXPECT_EQ(export_format_from_string("json"), ExportFormat::json);
  EXPECT_EQ(export_format_from_string("csv"), ExportFormat::csv);
  EXPECT_EQ(export_format_from_string("prom"), ExportFormat::prometheus);
  EXPECT_EQ(export_format_from_string("prometheus"),
            ExportFormat::prometheus);
  EXPECT_THROW(export_format_from_string("xml"), ValidationError);
  EXPECT_EQ(to_string(ExportFormat::json), "json");
  EXPECT_EQ(to_string(ExportFormat::csv), "csv");
  EXPECT_EQ(to_string(ExportFormat::prometheus), "prom");
}

TEST(WriteMetricsFile, RoundTripsAndThrowsIoError) {
  Registry reg;
  reg.counter("file.test").add(9);
  const std::string path = "obs_export_test_metrics.json";
  write_metrics_file(path, ExportFormat::json, reg);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_NE(buffer.str().find("\"file.test\", \"value\": 9"),
            std::string::npos);
  in.close();
  std::remove(path.c_str());

  EXPECT_THROW(write_metrics_file("no_such_dir/metrics.json",
                                  ExportFormat::json, reg),
               IoError);
}

TEST(WriteMetricsFile, ReportsAFullDisk) {
  if (!std::ofstream("/dev/full")) GTEST_SKIP() << "no /dev/full";
  Registry reg;
  reg.counter("file.test").add(9);
  EXPECT_THROW(write_metrics_file("/dev/full", ExportFormat::json, reg),
               IoError);
}

}  // namespace
}  // namespace hpcfail::obs
