#include "trace/adapters/adapter.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/time.hpp"
#include "obs/metrics.hpp"
#include "trace/dataset.hpp"
#include "trace/io.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"
#include "trace/types.hpp"

namespace hpcfail::trace {
namespace {

/// One record as one line, through the appending format_line.
std::string line_of(const Adapter& format, const FailureRecord& record) {
  std::string line;
  format.format_line(record, line);
  return line;
}

FailureRecord sample_record() {
  FailureRecord r;
  r.system_id = 2;
  r.node_id = 7;
  r.start = to_epoch(2004, 6, 1) + 3600;
  r.end = r.start + 389;
  r.workload = Workload::compute;
  r.cause = RootCause::human;
  r.detail = DetailCause::operator_error;
  return r;
}

FailureDataset sample_dataset() {
  std::vector<FailureRecord> records;
  FailureRecord a = sample_record();
  records.push_back(a);
  FailureRecord b = sample_record();
  b.node_id = 3;
  b.start = a.start + 7200;
  b.end = b.start + 1200;
  b.cause = RootCause::hardware;
  b.detail = DetailCause::memory_dimm;
  records.push_back(b);
  return FailureDataset(std::move(records));
}

TEST(AdapterRegistry, ListsAdaptersAscendingByName) {
  const auto adapters = all_adapters();
  ASSERT_EQ(adapters.size(), 3u);
  EXPECT_EQ(adapters[0]->name(), "lu");
  EXPECT_EQ(adapters[1]->name(), "mistral");
  EXPECT_EQ(adapters[2]->name(), "tan");
  EXPECT_EQ(adapter_names(), "lu, mistral, tan");
}

TEST(AdapterRegistry, LooksUpByNameAndRejectsUnknown) {
  EXPECT_EQ(adapter_for("tan").name(), "tan");
  try {
    adapter_for("slurmdb");
    FAIL() << "should have thrown";
  } catch (const ValidationError& e) {
    // The message must list the known names so the CLI error is
    // self-explanatory.
    EXPECT_NE(std::string(e.what()).find("lu, mistral, tan"),
              std::string::npos);
  }
}

TEST(AdapterLu, FormatsAndParsesOneLine) {
  const Adapter& lu = adapter_for("lu");
  const FailureRecord r = sample_record();
  const std::string line = line_of(lu, r);
  EXPECT_EQ(line, std::to_string(r.start) +
                      " c2n7 NODE_FAIL 389s comp HUM/oper");
  const FailureRecord back = lu.parse_line(line);
  EXPECT_EQ(back, r);
}

TEST(AdapterLu, ErrorTaxonomy) {
  const Adapter& lu = adapter_for("lu");
  const std::string good = line_of(lu, sample_record());
  // Malformed shapes are ParseErrors.
  EXPECT_THROW(lu.parse_line(""), ParseError);
  EXPECT_THROW(lu.parse_line("only three fields here"), ParseError);
  EXPECT_THROW(lu.parse_line("123 c2n7 JOB_START 389s comp HUM/oper"),
               ParseError);
  EXPECT_THROW(lu.parse_line("123 x2n7 NODE_FAIL 389s comp HUM/oper"),
               ParseError);
  EXPECT_THROW(lu.parse_line("123 c2n7 NODE_FAIL 389 comp HUM/oper"),
               ParseError);
  EXPECT_THROW(lu.parse_line("123 c2n7 NODE_FAIL 389s comp HUMoper"),
               ParseError);
  EXPECT_THROW(lu.parse_line("123 c2n7 NODE_FAIL 389s comp ZZZ/oper"),
               ParseError);
  // Well-formed but semantically invalid lines are ValidationErrors:
  // negative downtime, cause/detail category mismatch.
  EXPECT_THROW(lu.parse_line("123 c2n7 NODE_FAIL -5s comp HUM/oper"),
               ValidationError);
  EXPECT_THROW(lu.parse_line("123 c2n7 NODE_FAIL 389s comp HUM/mem"),
               ValidationError);
  // Ids outside int would alias other ids; an end past the last
  // representable time would overflow.
  EXPECT_THROW(lu.parse_line("123 c4294967297n0 NODE_FAIL 389s comp HUM/oper"),
               ParseError);
  EXPECT_THROW(lu.parse_line("123 c2n4294967297 NODE_FAIL 389s comp HUM/oper"),
               ParseError);
  EXPECT_THROW(lu.parse_line("9223372036854775000 c2n7 NODE_FAIL 1000s comp "
                             "HUM/oper"),
               ParseError);
  // The good line still parses after all that.
  EXPECT_NO_THROW(lu.parse_line(good));
}

TEST(AdapterTan, FormatsAndParsesOneLine) {
  const Adapter& tan = adapter_for("tan");
  const FailureRecord r = sample_record();
  const std::string line = line_of(tan, r);
  EXPECT_EQ(line,
            "2|7|06/01/2004 01:00:00|06/01/2004 01:06:29|389|Human|"
            "Operator|Compute");
  EXPECT_EQ(tan.parse_line(line), r);
}

TEST(AdapterTan, WritesEveryYearAsPrintfDid) {
  // "%02d/%02d/%04d %02d:%02d:%02d", signed and five-digit years included.
  const Adapter& tan = adapter_for("tan");
  for (const int year : {-10, -1, 0, 7, 1996, 9999, 10000, 12345}) {
    FailureRecord r = sample_record();
    r.start = to_epoch(CivilDateTime{year, 3, 4, 5, 6, 7});
    r.end = r.start + 61;
    char want[80];
    std::snprintf(want, sizeof want,
                  "2|7|03/04/%04d 05:06:07|03/04/%04d 05:07:08|61|Human|"
                  "Operator|Compute",
                  year, year);
    EXPECT_EQ(line_of(tan, r), want) << year;
  }
}

TEST(AdapterTan, RejectsDurationDisagreement) {
  const Adapter& tan = adapter_for("tan");
  // The redundant duration column must equal up - down.
  try {
    tan.parse_line(
        "2|7|06/01/2004 01:00:00|06/01/2004 01:06:29|400|Human|"
        "Operator|Compute");
    FAIL() << "should have thrown";
  } catch (const ValidationError& e) {
    EXPECT_NE(std::string(e.what()).find("disagrees"), std::string::npos);
  }
  EXPECT_THROW(
      tan.parse_line("2|7|2004-06-01 01:00:00|06/01/2004 01:06:29|389|"
                     "Human|Operator|Compute"),
      ParseError);
  EXPECT_THROW(
      tan.parse_line("2|7|06/01/2004 01:00:00|06/01/2004 01:06:29|389|"
                     "Gremlins|Operator|Compute"),
      ParseError);
  // Ids outside int would alias other ids.
  EXPECT_THROW(
      tan.parse_line("4294967297|7|06/01/2004 01:00:00|06/01/2004 01:06:29|"
                     "389|Human|Operator|Compute"),
      ParseError);
  EXPECT_THROW(
      tan.parse_line("2|4294967297|06/01/2004 01:00:00|06/01/2004 01:06:29|"
                     "389|Human|Operator|Compute"),
      ParseError);
}

TEST(AdapterMistral, FormatsAndParsesOneLine) {
  const Adapter& mistral = adapter_for("mistral");
  const FailureRecord r = sample_record();
  const std::string line = line_of(mistral, r);
  EXPECT_EQ(line,
            "j2-7,m2n7,2004-06-01T01:00:00,2004-06-01T01:06:29,"
            "FAILED_OP,operator,compute");
  EXPECT_EQ(mistral.parse_line(line), r);
}

TEST(AdapterMistral, RejectsJobHostMismatch) {
  const Adapter& mistral = adapter_for("mistral");
  // job_id and host encode the same (system, node); a disagreement is
  // semantic, not syntactic.
  EXPECT_THROW(
      mistral.parse_line("j2-8,m2n7,2004-06-01T01:00:00,"
                         "2004-06-01T01:06:29,FAILED_OP,operator,compute"),
      ValidationError);
  EXPECT_THROW(
      mistral.parse_line("j2-7,m2n7,2004-06-01 01:00:00,"
                         "2004-06-01T01:06:29,FAILED_OP,operator,compute"),
      ParseError);
  EXPECT_THROW(
      mistral.parse_line("j2-7,m2n7,2004-06-01T01:00:00,"
                         "2004-06-01T01:06:29,FAILED_OP,gremlin,compute"),
      ParseError);
  // Ids outside int would alias other ids (and agree with each other).
  EXPECT_THROW(
      mistral.parse_line("j4294967297-7,m4294967297n7,2004-06-01T01:00:00,"
                         "2004-06-01T01:06:29,FAILED_OP,operator,compute"),
      ParseError);
  EXPECT_THROW(
      mistral.parse_line("j2-4294967297,m2n4294967297,2004-06-01T01:00:00,"
                         "2004-06-01T01:06:29,FAILED_OP,operator,compute"),
      ParseError);
}

TEST(AdapterValidate, ChecksSharedSemantics) {
  FailureRecord r = sample_record();
  EXPECT_NO_THROW(validate_adapted(r));
  r.system_id = 0;
  EXPECT_THROW(validate_adapted(r), ValidationError);
  r = sample_record();
  r.node_id = -1;
  EXPECT_THROW(validate_adapted(r), ValidationError);
  r = sample_record();
  r.end = r.start - 1;
  EXPECT_THROW(validate_adapted(r), ValidationError);
  r = sample_record();
  r.detail = DetailCause::memory_dimm;  // category hardware, cause human
  EXPECT_THROW(validate_adapted(r), ValidationError);
}

TEST(AdapterSourceTest, StrictModeThrowsWithLinePrefix) {
  const Adapter& lu = adapter_for("lu");
  LineSource source(lu, LineSource::OnError::throw_);
  source.feed(std::string(lu.header()) + "\n" +
              line_of(lu, sample_record()) + "\n" +
              "garbage line that cannot parse at all ok\n");
  source.finish();
  FailureRecord out;
  EXPECT_EQ(source.next(out), SourceStatus::event);
  try {
    source.next(out);
    FAIL() << "should have thrown";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3:"), std::string::npos);
  }
}

TEST(AdapterSourceTest, RejectModeCountsAndContinues) {
  const Adapter& tan = adapter_for("tan");
  const FailureRecord r = sample_record();
  LineSource source(tan, LineSource::OnError::reject);
  source.feed(std::string(tan.header()) + "\n" + "not|a|valid|row\n" +
              line_of(tan, r) + "\n" +
              "\n" +  // blank lines are skipped, not rejected
              line_of(tan, r) + "\n");
  source.finish();
  FailureRecord out;
  std::size_t events = 0;
  while (source.next(out) == SourceStatus::event) ++events;
  EXPECT_EQ(events, 2u);
  EXPECT_EQ(source.counters().accepted, 2u);
  EXPECT_EQ(source.counters().rejected, 1u);
  EXPECT_FALSE(source.counters().last_error.empty());
}

TEST(AdapterSourceTest, StrictModeRethrowsValidationErrors) {
  const Adapter& tan = adapter_for("tan");
  std::istringstream in(
      std::string(tan.header()) + "\n" +
      "2|7|06/01/2004 01:00:00|06/01/2004 01:06:29|400|Human|Operator|"
      "Compute\n");
  try {
    read_csv(in, tan);
    FAIL() << "should have thrown";
  } catch (const ValidationError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("line 2: duration 400s", 0), 0u)
        << e.what();
  }
}

TEST(AdapterFiles, WriteThenReadIsIdentity) {
  const FailureDataset ds = sample_dataset();
  for (const Adapter* adapter : all_adapters()) {
    const std::string path =
        "adapter_file_test_" + std::string(adapter->name()) + ".txt";
    write_csv_file(path, ds, *adapter);
    const FailureDataset back = read_csv_file(path, *adapter);
    ASSERT_EQ(back.size(), ds.size()) << adapter->name();
    for (std::size_t i = 0; i < ds.size(); ++i) {
      EXPECT_EQ(back.records()[i], ds.records()[i]) << adapter->name();
    }
    std::remove(path.c_str());
  }
}

TEST(AdapterFiles, LenientReadCountsRejects) {
  const Adapter& mistral = adapter_for("mistral");
  const std::string path = "adapter_file_lenient_test.txt";
  {
    std::ofstream out(path);
    out << mistral.header() << "\n";
    out << line_of(mistral, sample_record()) << "\n";
    out << "j1-1,m1n1,not-a-timestamp-here,2004-06-01T01:06:29,"
           "FAILED_OP,operator,compute\n";
  }
  SourceCounters counters;
  const FailureDataset ds = read_csv_file(path, mistral, &counters);
  EXPECT_EQ(ds.size(), 1u);
  EXPECT_EQ(counters.accepted, 1u);
  EXPECT_EQ(counters.rejected, 1u);
  // The strict path reports the same line with its number.
  EXPECT_THROW(read_csv_file(path, mistral), ParseError);
  std::remove(path.c_str());
}

TEST(AdapterFiles, ForeignFileWithoutItsHeaderIsRejected) {
  for (const Adapter* adapter : all_adapters()) {
    std::istringstream in(line_of(*adapter, sample_record()) + "\n");
    SourceCounters counters;
    try {
      read_csv(in, *adapter, &counters);
      FAIL() << adapter->name() << ": should have thrown";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("unexpected trace header"),
                std::string::npos)
          << adapter->name();
    }
  }
}

TEST(AdapterFiles, ForeignReadsAndWritesCountRows) {
  if (!obs::enabled()) GTEST_SKIP() << "obs recording is compiled out";
  obs::Counter& written = obs::registry().counter("csv.rows_written");
  obs::Counter& read = obs::registry().counter("csv.rows_read");
  const FailureDataset ds = sample_dataset();
  for (const Adapter* adapter : all_adapters()) {
    const std::uint64_t written_before = written.value();
    const std::uint64_t read_before = read.value();
    std::stringstream buffer;
    write_csv(buffer, ds, *adapter);
    EXPECT_EQ(written.value() - written_before, ds.size()) << adapter->name();
    EXPECT_EQ(read_csv(buffer, *adapter).size(), ds.size());
    // Every line the read consumed: the header and each row.
    EXPECT_EQ(read.value() - read_before, ds.size() + 1) << adapter->name();
  }
}

TEST(AdapterLineSource, StreamsForeignLinesWithRejectAndCount) {
  // The serve-ingest path: a LineSource constructed with an adapter
  // parses that wire format and flattens the whole error taxonomy
  // (ParseError and ValidationError alike) into reject-and-count.
  const Adapter& lu = adapter_for("lu");
  LineSource source(lu);
  const FailureRecord r = sample_record();
  source.feed(line_of(lu, r) + "\n");
  source.feed(std::string(lu.header()) + "\n");       // skipped
  source.feed("123 c2n7 NODE_FAIL -9s comp HUM/oper\n");  // ValidationError
  source.feed("complete garbage\n");                      // ParseError
  source.finish();
  FailureRecord out;
  std::size_t events = 0;
  while (source.next(out) == SourceStatus::event) {
    EXPECT_EQ(out, r);
    ++events;
  }
  EXPECT_EQ(events, 1u);
  EXPECT_EQ(source.counters().accepted, 1u);
  EXPECT_EQ(source.counters().rejected, 2u);
}

}  // namespace
}  // namespace hpcfail::trace
