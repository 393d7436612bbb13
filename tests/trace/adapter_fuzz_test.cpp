// Cross-schema differential battery, property half, over every format
// (the registered adapters plus the native CSV row):
//
//   * round trip — a native record formatted by any format and parsed
//     back is bit-identical (the bijectivity contract);
//   * mutation fuzz — random byte mutations of valid foreign lines
//     either throw a typed library Error (which streaming ingest turns
//     into reject-and-count) or parse into a fully consistent record;
//     nothing crashes, nothing is silently accepted as garbage. The same
//     lines read as a file through a small read_csv window give what one
//     LineSource fed the whole file gives.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "testkit/generators.hpp"
#include "testkit/property.hpp"
#include "trace/adapters/adapter.hpp"
#include "trace/io.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"

namespace hpcfail::trace {
namespace {

/// One record as one line, through the appending format_line.
std::string line_of(const Adapter& format, const FailureRecord& record) {
  std::string line;
  format.format_line(record, line);
  return line;
}

/// The registered adapters plus the native format.
std::vector<const Adapter*> every_format() {
  std::vector<const Adapter*> formats(all_adapters().begin(),
                                      all_adapters().end());
  formats.push_back(&native_format());
  return formats;
}

TEST(AdapterRoundTrip, EveryAdapterIsBijectiveOnConsistentRecords) {
  for (const Adapter* adapter : every_format()) {
    const auto result = testkit::check_property(
        testkit::failure_records(),
        [adapter](const FailureRecord& r) {
          return adapter->parse_line(line_of(*adapter, r)) == r;
        });
    EXPECT_TRUE(result.passed) << adapter->name() << ": " << result.message;
  }
}

TEST(AdapterRoundTrip, SurvivesSecondRoundTripByteIdentically) {
  // format -> parse -> format must reproduce the same line: the adapter
  // cannot have two spellings of one record.
  for (const Adapter* adapter : every_format()) {
    const auto result = testkit::check_property(
        testkit::failure_records(),
        [adapter](const FailureRecord& r) {
          const std::string line = line_of(*adapter, r);
          return line_of(*adapter, adapter->parse_line(line)) == line;
        });
    EXPECT_TRUE(result.passed) << adapter->name() << ": " << result.message;
  }
}

TEST(AdapterRoundTrip, FormatLineAppendsToWhatTheBufferHolds) {
  for (const Adapter* adapter : every_format()) {
    const auto result = testkit::check_property(
        testkit::failure_records(), [adapter](const FailureRecord& r) {
          std::string buffer = "kept\n";
          adapter->format_line(r, buffer);
          return buffer == "kept\n" + line_of(*adapter, r);
        });
    EXPECT_TRUE(result.passed) << adapter->name() << ": " << result.message;
  }
}

/// A valid formatted line with `mutations` random single-byte edits
/// (replace, delete, or insert), plus the record it came from.
struct MutatedLine {
  std::string line;
  std::string original;
};

testkit::Gen<MutatedLine> mutated_lines(const Adapter& adapter) {
  testkit::Gen<MutatedLine> gen;
  const testkit::Gen<FailureRecord> records = testkit::failure_records();
  gen.sample = [&adapter, records](Rng& rng) {
    MutatedLine out;
    out.original = line_of(adapter, records.sample(rng));
    out.line = out.original;
    const std::size_t mutations =
        1 + static_cast<std::size_t>(rng.uniform() * 4.0);
    for (std::size_t m = 0; m < mutations && !out.line.empty(); ++m) {
      const std::size_t at =
          static_cast<std::size_t>(rng.uniform() * out.line.size());
      const double kind = rng.uniform();
      // Printable and non-printable replacements alike; '\n' excluded so
      // the mutation stays a single line (the framing layer's job).
      char byte = static_cast<char>(1 + rng.uniform() * 254.0);
      if (byte == '\n') byte = '?';
      if (kind < 0.6) {
        out.line[at] = byte;
      } else if (kind < 0.8) {
        out.line.erase(at, 1);
      } else {
        out.line.insert(at, 1, byte);
      }
    }
    return out;
  };
  gen.show = [](const MutatedLine& v) {
    return "mutated: \"" + v.line + "\" (from \"" + v.original + "\")";
  };
  return gen;
}

TEST(AdapterFuzz, MutatedLinesRejectOrParseConsistently) {
  testkit::PropertyOptions options;
  options.cases = 2000;
  for (const Adapter* adapter : every_format()) {
    const auto result = testkit::check_property(
        mutated_lines(*adapter),
        [adapter](const MutatedLine& v) {
          try {
            const FailureRecord r = adapter->parse_line(v.line);
            // Whatever still parses must be a fully consistent record —
            // the adapter may accept a *different* valid line, never
            // emit garbage.
            return r.is_consistent() && r.system_id >= 1 &&
                   r.node_id >= 0 && r.end >= r.start;
          } catch (const ParseError&) {
            return true;
          } catch (const ValidationError&) {
            return true;
          }
          // Any other exception type (or a crash) fails the property.
        },
        options);
    EXPECT_TRUE(result.passed) << adapter->name() << ": " << result.message;
  }
}

TEST(AdapterFuzz, StreamingIngestRejectsAndCountsEveryMutatedLine) {
  // The end-to-end reject-and-count guarantee: feed a mix of valid and
  // mutated lines through the adapter-aware LineSource (the serve
  // ingest path) and check accepted + rejected accounts for every line
  // with nothing thrown.
  for (const Adapter* adapter : every_format()) {
    Rng rng(mix_seed(0xfeed5eedull, 17, 29));
    LineSource source(*adapter);
    const testkit::Gen<MutatedLine> gen = mutated_lines(*adapter);
    std::uint64_t fed = 0;
    for (std::size_t i = 0; i < 500; ++i) {
      const MutatedLine v = gen.sample(rng);
      source.feed(v.original + "\n");
      ++fed;
      if (!v.line.empty()) {
        source.feed(v.line + "\n");
        ++fed;
      }
    }
    source.finish();
    FailureRecord out;
    std::uint64_t accepted = 0;
    while (source.next(out) == SourceStatus::event) ++accepted;
    EXPECT_EQ(accepted, source.counters().accepted) << adapter->name();
    EXPECT_EQ(source.counters().accepted + source.counters().rejected, fed)
        << adapter->name();
    // At least all the unmutated originals made it through.
    EXPECT_GE(source.counters().accepted, 500u) << adapter->name();
  }
}

/// What a read of `text` in `format` yields: its records, or the type
/// and message of the error a strict read throws.
struct ReadOutcome {
  std::vector<FailureRecord> records;
  SourceCounters counters;
  std::string error;
};

/// One LineSource fed all of `text`, strict unless `lenient`.
ReadOutcome one_feed(const Adapter& format, const std::string& text,
                     bool lenient) {
  LineSource source(format, lenient ? LineSource::OnError::reject
                                    : LineSource::OnError::throw_);
  source.feed(text);
  source.finish();
  ReadOutcome out;
  FailureRecord r;
  try {
    while (source.next(r) == SourceStatus::event) out.records.push_back(r);
  } catch (const ParseError& e) {
    out.error = std::string("ParseError: ") + e.what();
  } catch (const ValidationError& e) {
    out.error = std::string("ValidationError: ") + e.what();
  }
  out.records = FailureDataset(out.records).records().to_records();
  out.counters = source.counters();
  return out;
}

/// read_csv of `text` through a window of `window` bytes, strict unless
/// `lenient`.
ReadOutcome windowed(const Adapter& format, const std::string& text,
                     std::size_t window, bool lenient) {
  std::istringstream in(text);
  ReadOutcome out;
  try {
    out.records = detail::read_csv_windowed(in, format,
                                            lenient ? &out.counters : nullptr,
                                            window)
                      .records()
                      .to_records();
  } catch (const ParseError& e) {
    out.error = std::string("ParseError: ") + e.what();
  } catch (const ValidationError& e) {
    out.error = std::string("ValidationError: ") + e.what();
  }
  return out;
}

bool same(const ReadOutcome& a, const ReadOutcome& b, bool lenient) {
  if (a.error != b.error) return false;
  if (!a.error.empty()) return true;
  return a.records == b.records &&
         (!lenient || (a.counters.accepted == b.counters.accepted &&
                       a.counters.rejected == b.counters.rejected &&
                       a.counters.last_error == b.counters.last_error));
}

TEST(AdapterFuzz, ChunkedReadRejectsAndCountsEveryMutatedLine) {
  // The lines of StreamingIngestRejectsAndCountsEveryMutatedLine as one
  // file, read through a 1 KiB window: every line is accepted or
  // rejected, and the records are the one-feed source's.
  for (const Adapter* adapter : every_format()) {
    Rng rng(mix_seed(0xfeed5eedull, 17, 29));
    const testkit::Gen<MutatedLine> gen = mutated_lines(*adapter);
    std::string text = std::string(adapter->header()) + "\n";
    std::uint64_t fed = 0;
    for (std::size_t i = 0; i < 500; ++i) {
      const MutatedLine v = gen.sample(rng);
      text += v.original + "\n";
      ++fed;
      if (!v.line.empty()) {
        text += v.line + "\n";
        ++fed;
      }
    }
    const ReadOutcome want = one_feed(*adapter, text, true);
    const ReadOutcome got = windowed(*adapter, text, 1024, true);
    EXPECT_EQ(got.counters.accepted + got.counters.rejected, fed)
        << adapter->name();
    EXPECT_EQ(got.counters.accepted, got.records.size()) << adapter->name();
    EXPECT_TRUE(same(got, want, true)) << adapter->name();
  }
}

TEST(AdapterFuzz, MutatedLinesReadThroughASmallWindowAsOneFeed) {
  // A mutated line between two originals, read leniently and strictly
  // through a 128-byte window at two threads: the records, counters and
  // first error of one LineSource fed the whole file.
  set_parallelism(2);
  testkit::PropertyOptions options;
  options.cases = 2000;
  for (const Adapter* adapter : every_format()) {
    const auto result = testkit::check_property(
        mutated_lines(*adapter),
        [adapter](const MutatedLine& v) {
          const std::string text = std::string(adapter->header()) + "\n" +
                                   v.original + "\n" + v.line + "\n" +
                                   v.original;
          for (const bool lenient : {true, false}) {
            if (!same(windowed(*adapter, text, 128, lenient),
                      one_feed(*adapter, text, lenient), lenient)) {
              return false;
            }
          }
          return true;
        },
        options);
    EXPECT_TRUE(result.passed) << adapter->name() << ": " << result.message;
  }
  set_parallelism(0);
}

}  // namespace
}  // namespace hpcfail::trace
