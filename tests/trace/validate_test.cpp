#include "trace/validate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "synth/corruption.hpp"
#include "synth/generator.hpp"

namespace hpcfail::trace {
namespace {

FailureRecord rec(int system, int node, Seconds start, Seconds duration,
                  Workload wl = Workload::compute) {
  FailureRecord r;
  r.system_id = system;
  r.node_id = node;
  r.start = start;
  r.end = start + duration;
  r.workload = wl;
  r.cause = RootCause::hardware;
  r.detail = DetailCause::memory_dimm;
  return r;
}

TEST(Validate, CleanSyntheticTraceValidates) {
  const FailureDataset dataset = synth::generate_lanl_trace(42);
  const ValidationReport report =
      validate(dataset, SystemCatalog::lanl());
  EXPECT_EQ(report.records_checked, dataset.size());
  // The generator never emits unknown ids, out-of-window or mislabeled
  // records; overlapping repairs can occur legitimately (a node can be
  // reported failed again while a long repair ticket is open), so only
  // the structural kinds must be absent.
  EXPECT_EQ(report.count(ValidationIssueKind::unknown_system), 0u);
  EXPECT_EQ(report.count(ValidationIssueKind::node_out_of_range), 0u);
  EXPECT_EQ(report.count(ValidationIssueKind::outside_production), 0u);
  EXPECT_EQ(report.count(ValidationIssueKind::workload_mismatch), 0u);
  EXPECT_EQ(report.count(ValidationIssueKind::implausible_duration), 0u);
}

TEST(Validate, FlagsUnknownSystem) {
  const FailureDataset ds({rec(99, 0, to_epoch(2003, 1, 1), 600)});
  const ValidationReport report = validate(ds, SystemCatalog::lanl());
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].kind, ValidationIssueKind::unknown_system);
  EXPECT_EQ(report.issues[0].record_index, 0u);
  EXPECT_EQ(issue_message(report.issues[0], ds, SystemCatalog::lanl()),
            "system 99 is not in the catalog");
  EXPECT_FALSE(report.clean());
}

TEST(Validate, FlagsNodeOutOfRange) {
  const FailureDataset ds({rec(12, 32, to_epoch(2004, 1, 1), 600)});
  const ValidationReport report = validate(ds, SystemCatalog::lanl());
  EXPECT_EQ(report.count(ValidationIssueKind::node_out_of_range), 1u);
}

TEST(Validate, FlagsOutsideProduction) {
  // System 19 retired 09/2002.
  const FailureDataset ds({rec(19, 3, to_epoch(2004, 1, 1), 600)});
  const ValidationReport report = validate(ds, SystemCatalog::lanl());
  EXPECT_EQ(report.count(ValidationIssueKind::outside_production), 1u);
}

TEST(Validate, FlagsOverlappingRepair) {
  const Seconds t0 = to_epoch(2005, 1, 1);  // inside system 22's window
  const FailureDataset ds({
      rec(22, 0, t0, 7200),          // down for two hours
      rec(22, 0, t0 + 3600, 600),    // reported again mid-repair
      rec(22, 0, t0 + 9000, 600),    // fine
  });
  const ValidationReport report = validate(ds, SystemCatalog::lanl());
  EXPECT_EQ(report.count(ValidationIssueKind::overlapping_repair), 1u);
  EXPECT_EQ(report.issues[0].record_index, 1u);
  EXPECT_EQ(report.issues[0].until, t0 + 7200);
  EXPECT_EQ(issue_message(report.issues[0], ds, SystemCatalog::lanl()),
            "failure starts while the node is still under repair until "
            "2005-01-01 02:00:00");
}

TEST(Validate, FlagsImplausibleDuration) {
  const FailureDataset ds(
      {rec(22, 0, to_epoch(2004, 12, 1), 90 * kSecondsPerDay)});
  const ValidationReport report = validate(ds, SystemCatalog::lanl());
  EXPECT_EQ(report.count(ValidationIssueKind::implausible_duration), 1u);
}

TEST(Validate, FlagsWorkloadMismatch) {
  // Node 22 of system 20 is a graphics node; label it compute.
  const FailureDataset ds(
      {rec(20, 22, to_epoch(2004, 1, 1), 600, Workload::compute)});
  const ValidationReport report = validate(ds, SystemCatalog::lanl());
  EXPECT_EQ(report.count(ValidationIssueKind::workload_mismatch), 1u);
}

TEST(Validate, EmptyDatasetIsClean) {
  const ValidationReport report =
      validate(FailureDataset{}, SystemCatalog::lanl());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.records_checked, 0u);
}

TEST(DropFlagged, RemovesExactlyTheFlaggedRecords) {
  const Seconds t0 = to_epoch(2005, 1, 1);  // inside system 22's window
  const FailureDataset ds({
      rec(22, 0, t0, 600),
      rec(99, 0, t0 + 1000, 600),  // unknown system
      rec(22, 0, t0 + 2000, 600),
  });
  const ValidationReport report = validate(ds, SystemCatalog::lanl());
  const FailureDataset cleaned = drop_flagged(ds, report);
  EXPECT_EQ(cleaned.size(), 2u);
  EXPECT_TRUE(validate(cleaned, SystemCatalog::lanl()).clean());
}

TEST(Validate, CatchesInjectedCorruption) {
  // End-to-end failure injection: corrupt the clean trace and verify the
  // validator finds every class of damage.
  const FailureDataset clean = synth::generate_lanl_trace(7);
  synth::CorruptionConfig cfg;
  cfg.seed = 3;
  cfg.corrupt_node_probability = 0.01;
  cfg.stretch_repair_probability = 0.005;
  const FailureDataset dirty = synth::corrupt(clean, cfg);

  const ValidationReport report = validate(dirty, SystemCatalog::lanl());
  EXPECT_GT(report.count(ValidationIssueKind::node_out_of_range),
            dirty.size() / 500);
  EXPECT_GT(report.count(ValidationIssueKind::implausible_duration), 0u);

  // Dropping the flagged records yields a structurally clean dataset.
  const FailureDataset cleaned = drop_flagged(dirty, report);
  const ValidationReport recheck =
      validate(cleaned, SystemCatalog::lanl());
  EXPECT_EQ(recheck.count(ValidationIssueKind::node_out_of_range), 0u);
  EXPECT_EQ(recheck.count(ValidationIssueKind::implausible_duration), 0u);
}

// An issue with its message formatted where it is found, as the oracle
// below reports it; validate()'s issues render theirs on demand.
struct MessageIssue {
  ValidationIssueKind kind;
  std::size_t record_index = 0;
  std::string message;
};

struct MessageReport {
  std::vector<MessageIssue> issues;
  std::size_t records_checked = 0;

  std::size_t count(ValidationIssueKind kind) const {
    const auto same_kind = [kind](const MessageIssue& i) {
      return i.kind == kind;
    };
    return static_cast<std::size_t>(
        std::count_if(issues.begin(), issues.end(), same_kind));
  }
};

// The map-based loop validate() ran before its per-node repair state
// moved into dense per-system arrays, kept as an oracle: state keyed by
// (system, node) in a std::map, systems found by the catalog's linear
// lookups, and every message formatted as the issue is found.
MessageReport map_based_validate(const FailureDataset& dataset,
                                 const SystemCatalog& catalog) {
  MessageReport report;
  report.records_checked = dataset.size();
  const auto max_repair_seconds =
      static_cast<Seconds>(kMaxRepairDays * kSecondsPerDay);
  std::map<std::pair<int, int>, Seconds> down_until;
  const auto records = dataset.records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const FailureRecord& r = records[i];
    const auto flag = [&](ValidationIssueKind kind, std::string message) {
      report.issues.push_back({kind, i, std::move(message)});
    };
    if (!catalog.contains(r.system_id)) {
      flag(ValidationIssueKind::unknown_system,
           "system " + std::to_string(r.system_id) +
               " is not in the catalog");
      continue;
    }
    const SystemInfo& sys = catalog.system(r.system_id);
    if (r.node_id >= sys.nodes) {
      flag(ValidationIssueKind::node_out_of_range,
           "node " + std::to_string(r.node_id) + " of system " +
               std::to_string(r.system_id) + " (has " +
               std::to_string(sys.nodes) + " nodes)");
      continue;
    }
    const NodeCategory& category = sys.category_for_node(r.node_id);
    if (r.start < category.production_start ||
        r.start >= category.production_end) {
      flag(ValidationIssueKind::outside_production,
           "failure at " + format_timestamp(r.start) +
               " outside the node's production window");
    }
    if (r.downtime_seconds() > max_repair_seconds) {
      flag(ValidationIssueKind::implausible_duration,
           "repair of " + std::to_string(r.downtime_seconds() /
                                         kSecondsPerDay) +
               " days exceeds the plausibility cap");
    }
    if (r.workload != sys.workload_of(r.node_id)) {
      flag(ValidationIssueKind::workload_mismatch,
           "record says " + to_string(r.workload) + ", catalog says " +
               to_string(sys.workload_of(r.node_id)));
    }
    const auto key = std::make_pair(r.system_id, r.node_id);
    const auto it = down_until.find(key);
    if (it != down_until.end() && r.start < it->second) {
      flag(ValidationIssueKind::overlapping_repair,
           "failure starts while the node is still under repair until " +
               format_timestamp(it->second));
    }
    Seconds& until = down_until[key];
    until = std::max(until, r.end);
  }
  return report;
}

// Random records over one year on a few nodes per system, so repairs
// overlap often: about one in twelve names a system outside the
// catalog, one in ten a node past the system's range, and a few repairs
// run past the 60-day cap. Times fall on whole days, so a failure often
// starts exactly when the node's previous repair ends.
FailureDataset random_dataset(std::uint64_t seed, std::size_t n) {
  const SystemCatalog& lanl = SystemCatalog::lanl();
  Rng rng(seed);
  const Seconds t0 = to_epoch(2002, 6, 1);
  std::vector<FailureRecord> records;
  records.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int system = 1 + static_cast<int>(rng.uniform_index(24));
    const int nodes = lanl.contains(system) ? lanl.system(system).nodes : 8;
    const int node =
        rng.bernoulli(0.1)
            ? nodes + static_cast<int>(rng.uniform_index(3))
            : static_cast<int>(
                  rng.uniform_index(static_cast<std::uint64_t>(
                      std::min(nodes, 6))));
    const std::uint64_t days = rng.bernoulli(0.05) ? 120 : 20;
    const Seconds start =
        t0 + static_cast<Seconds>(rng.uniform_index(365)) * kSecondsPerDay;
    const Seconds duration =
        static_cast<Seconds>(rng.uniform_index(days + 1)) * kSecondsPerDay;
    const Workload workload =
        rng.bernoulli(0.8)
            ? Workload::compute
            : (rng.bernoulli(0.5) ? Workload::graphics : Workload::frontend);
    records.push_back(rec(system, node, start, duration, workload));
  }
  return FailureDataset(std::move(records));
}

void expect_same_report(const ValidationReport& got,
                        const MessageReport& want,
                        const FailureDataset& dataset,
                        const SystemCatalog& catalog) {
  EXPECT_EQ(got.records_checked, want.records_checked);
  ASSERT_EQ(got.issues.size(), want.issues.size());
  for (std::size_t i = 0; i < got.issues.size(); ++i) {
    EXPECT_EQ(got.issues[i].kind, want.issues[i].kind) << "issue " << i;
    EXPECT_EQ(got.issues[i].record_index, want.issues[i].record_index)
        << "issue " << i;
    EXPECT_EQ(issue_message(got.issues[i], dataset, catalog),
              want.issues[i].message)
        << "issue " << i;
  }
}

TEST(Validate, MatchesTheMapBasedLoopOnRandomDatasets) {
  // The LANL catalog, and the same systems listed in descending id order.
  const SystemCatalog& lanl = SystemCatalog::lanl();
  const SystemCatalog reversed(
      std::vector<SystemInfo>(lanl.systems().rbegin(), lanl.systems().rend()));
  std::size_t kinds_seen[6] = {};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const FailureDataset ds = random_dataset(seed, 1500);
    for (const SystemCatalog* catalog : {&lanl, &reversed}) {
      const MessageReport want = map_based_validate(ds, *catalog);
      expect_same_report(validate(ds, *catalog), want, ds, *catalog);
      for (const MessageIssue& issue : want.issues) {
        ++kinds_seen[static_cast<std::size_t>(issue.kind)];
      }
    }
  }
  for (const std::size_t seen : kinds_seen) EXPECT_GT(seen, 0u);
}

TEST(Validate, PreEpochRepairEndIsNotAnOverlap) {
  // A node repaired at 1969-12-31 23:00 is up again before 1970; the
  // map-based loop's value-initialized entry started at 0 and flagged
  // the next failure as starting mid-repair "until 1970-01-01".
  const FailureDataset ds({rec(22, 0, -7200, 3600), rec(22, 0, -1800, 600)});
  const ValidationReport report = validate(ds, SystemCatalog::lanl());
  EXPECT_EQ(report.count(ValidationIssueKind::overlapping_repair), 0u);
  EXPECT_EQ(map_based_validate(ds, SystemCatalog::lanl())
                .count(ValidationIssueKind::overlapping_repair),
            1u);
}

TEST(Corrupt, DropAndRelabelRates) {
  const FailureDataset clean = synth::generate_lanl_trace(7);
  synth::CorruptionConfig cfg;
  cfg.seed = 11;
  cfg.drop_probability = 0.10;
  cfg.relabel_unknown_probability = 0.20;
  const FailureDataset dirty = synth::corrupt(clean, cfg);
  const double kept = static_cast<double>(dirty.size()) /
                      static_cast<double>(clean.size());
  EXPECT_NEAR(kept, 0.90, 0.02);

  std::size_t unknown_clean = 0;
  std::size_t unknown_dirty = 0;
  for (const FailureRecord& r : clean.records()) {
    if (r.cause == RootCause::unknown) ++unknown_clean;
  }
  for (const FailureRecord& r : dirty.records()) {
    if (r.cause == RootCause::unknown) ++unknown_dirty;
  }
  EXPECT_GT(static_cast<double>(unknown_dirty) /
                static_cast<double>(dirty.size()),
            static_cast<double>(unknown_clean) /
                static_cast<double>(clean.size()) +
                0.1);
}

TEST(Corrupt, ValidatesProbabilities) {
  const FailureDataset clean({rec(22, 0, to_epoch(2005, 1, 1), 60)});
  synth::CorruptionConfig cfg;
  cfg.drop_probability = 1.5;
  EXPECT_THROW(synth::corrupt(clean, cfg), InvalidArgument);
}

TEST(Corrupt, DeterministicGivenSeed) {
  const FailureDataset clean = synth::generate_lanl_trace(7);
  synth::CorruptionConfig cfg;
  cfg.seed = 5;
  cfg.drop_probability = 0.05;
  const FailureDataset a = synth::corrupt(clean, cfg);
  const FailureDataset b = synth::corrupt(clean, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.records()[i], b.records()[i]);
  }
}

}  // namespace
}  // namespace hpcfail::trace
