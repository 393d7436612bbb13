#include "trace/types.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace hpcfail::trace {
namespace {

TEST(RootCause, StringRoundTrip) {
  for (const RootCause cause : kAllRootCauses) {
    EXPECT_EQ(root_cause_from_string(to_string(cause)), cause);
  }
}

TEST(RootCause, ParsingIsCaseInsensitiveAndTrimmed) {
  EXPECT_EQ(root_cause_from_string("Hardware"), RootCause::hardware);
  EXPECT_EQ(root_cause_from_string("  SOFTWARE  "), RootCause::software);
}

TEST(RootCause, RejectsUnknownSpelling) {
  EXPECT_THROW(root_cause_from_string("cosmic rays"), ParseError);
  EXPECT_THROW(root_cause_from_string(""), ParseError);
}

TEST(DetailCause, CategoryMapping) {
  EXPECT_EQ(category_of(DetailCause::memory_dimm), RootCause::hardware);
  EXPECT_EQ(category_of(DetailCause::cpu), RootCause::hardware);
  EXPECT_EQ(category_of(DetailCause::parallel_fs), RootCause::software);
  EXPECT_EQ(category_of(DetailCause::scheduler), RootCause::software);
  EXPECT_EQ(category_of(DetailCause::nic), RootCause::network);
  EXPECT_EQ(category_of(DetailCause::power_outage), RootCause::environment);
  EXPECT_EQ(category_of(DetailCause::ac_failure), RootCause::environment);
  EXPECT_EQ(category_of(DetailCause::operator_error), RootCause::human);
  EXPECT_EQ(category_of(DetailCause::undetermined), RootCause::unknown);
}

TEST(DetailCause, StringRoundTrip) {
  for (const DetailCause d :
       {DetailCause::memory_dimm, DetailCause::cpu, DetailCause::scheduler,
        DetailCause::power_outage, DetailCause::operator_error,
        DetailCause::undetermined}) {
    EXPECT_EQ(detail_cause_from_string(to_string(d)), d);
  }
  EXPECT_THROW(detail_cause_from_string("gremlins"), ParseError);
}

TEST(Workload, StringRoundTripWithReleaseSpelling) {
  // The LANL release spells front-end "fe".
  EXPECT_EQ(to_string(Workload::frontend), "fe");
  EXPECT_EQ(workload_from_string("fe"), Workload::frontend);
  EXPECT_EQ(workload_from_string("frontend"), Workload::frontend);
  EXPECT_EQ(workload_from_string("front-end"), Workload::frontend);
  EXPECT_EQ(workload_from_string("compute"), Workload::compute);
  EXPECT_EQ(workload_from_string("GRAPHICS"), Workload::graphics);
  EXPECT_THROW(workload_from_string("database"), ParseError);
}

/// Calls `check` with every upper/lower-case spelling of `name`, each
/// padded with some of the whitespace trim_view strips.
template <typename Check>
void for_each_spelling(std::string_view name, Check check) {
  static constexpr std::string_view kPads[] = {"", " ", "\t", " \r\n", "\v\f "};
  std::vector<std::size_t> letters;
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (name[i] >= 'a' && name[i] <= 'z') letters.push_back(i);
  }
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << letters.size());
       ++mask) {
    std::string cased(name);
    for (std::size_t b = 0; b < letters.size(); ++b) {
      char& c = cased[letters[b]];
      if ((mask >> b) & 1) c = static_cast<char>(c - 'a' + 'A');
    }
    const std::size_t pads = std::size(kPads);
    check(std::string(kPads[mask % pads]) + cased +
          std::string(kPads[(mask / pads) % pads]));
  }
}

/// The first spelling of a name that does not parse back to its value.
template <typename Enum, std::size_t N, typename Parse>
std::string first_miss(const std::array<std::string_view, N>& names,
                       Parse parse) {
  std::string miss;
  for (std::size_t i = 0; i < N; ++i) {
    for_each_spelling(names[i], [&](const std::string& spelling) {
      if (miss.empty() && parse(spelling) != static_cast<Enum>(i)) {
        miss = spelling;
      }
    });
  }
  return miss;
}

TEST(EnumNames, EveryCaseAndPaddingOfEveryNameParses) {
  EXPECT_EQ(first_miss<RootCause>(kRootCauseNames, root_cause_from_string),
            "");
  EXPECT_EQ(
      first_miss<DetailCause>(kDetailCauseNames, detail_cause_from_string),
      "");
  EXPECT_EQ(first_miss<Workload>(kWorkloadNames, workload_from_string), "");
  for (const std::string_view alias : {"frontend", "front-end"}) {
    for_each_spelling(alias, [](const std::string& spelling) {
      ASSERT_EQ(workload_from_string(spelling), Workload::frontend)
          << spelling;
    });
  }
}

TEST(EnumNames, ToStringReadsTheTables) {
  for (std::size_t i = 0; i < kDetailCauseNames.size(); ++i) {
    const auto detail = static_cast<DetailCause>(i);
    EXPECT_EQ(to_string(detail), kDetailCauseNames[i]);
    EXPECT_EQ(detail_cause_from_string(to_string(detail)), detail);
  }
  EXPECT_EQ(to_string(RootCause::environment), "environment");
  EXPECT_EQ(name_of(Workload::graphics), "graphics");
  EXPECT_THROW(name_of(static_cast<RootCause>(6)), InvalidArgument);
  EXPECT_THROW(to_string(static_cast<DetailCause>(16)), InvalidArgument);
  EXPECT_THROW(to_string(static_cast<Workload>(3)), InvalidArgument);
}

/// The ParseError message a lookup gives `text`, or "accepted".
template <typename Parse>
std::string rejection(Parse parse, std::string_view text) {
  try {
    parse(text);
  } catch (const ParseError& e) {
    return e.what();
  }
  return "accepted";
}

TEST(EnumNames, UnknownNamesAreRejectedWithTheTextAsGiven) {
  EXPECT_EQ(rejection(root_cause_from_string, " Cosmic Rays "),
            "unknown root cause: ' Cosmic Rays '");
  EXPECT_EQ(rejection(detail_cause_from_string, "hardware"),
            "unknown detail cause: 'hardware'");
  EXPECT_EQ(rejection(workload_from_string, "\tdatabase"),
            "unknown workload: '\tdatabase'");
  // Near misses of every detail name: a letter short, a letter long, and
  // '_' as DEL, which only a compare that folds non-letters would take.
  for (const std::string_view name : kDetailCauseNames) {
    std::string long_name(name);
    long_name += 's';
    std::string del(name);
    std::replace(del.begin(), del.end(), '_', '\x7f');
    for (const std::string& text :
         {std::string(name.substr(1)), long_name, del}) {
      if (text == name) continue;  // a name without '_'
      EXPECT_EQ(rejection(detail_cause_from_string, text),
                "unknown detail cause: '" + text + "'");
    }
  }
  // '-' is '\r' with bit 5 set.
  EXPECT_EQ(rejection(workload_from_string, "front\rend"),
            "unknown workload: 'front\rend'");
}

TEST(CauseIndex, StableOrder) {
  EXPECT_EQ(cause_index(RootCause::hardware), 0u);
  EXPECT_EQ(cause_index(RootCause::software), 1u);
  EXPECT_EQ(cause_index(RootCause::network), 2u);
  EXPECT_EQ(cause_index(RootCause::environment), 3u);
  EXPECT_EQ(cause_index(RootCause::human), 4u);
  EXPECT_EQ(cause_index(RootCause::unknown), 5u);
  for (std::size_t i = 0; i < kAllRootCauses.size(); ++i) {
    EXPECT_EQ(cause_index(kAllRootCauses[i]), i);
  }
}

}  // namespace
}  // namespace hpcfail::trace
