// Windowed live analytics for the streaming daemon.
//
// LiveAnalytics keeps one table, system -> node -> root cause. A system
// row holds the system's event count, its last failure start and the
// system-view gap window; each of its node rows holds the node's last
// failure start and one cell per cause with sliding windows of repair
// minutes and per-node failure gaps (Section 5.3's two views). An event
// updates one system row and one node row in O(log buckets). report()
// merges the covered buckets and derives the windowed moments (mean, C²)
// and a streaming FitReport (dist::fit_report_from_stats) — no trace
// rescan, no retained samples, so a report over any window is
// O(cells x buckets) regardless of how many events were ingested.
//
// Windows are anchored at the *trace* clock (the latest event timestamp
// seen), not the wall clock, so replayed historical traces report
// sensibly. Not thread-safe: the server serializes observe()/report()
// behind its own mutex (both are cheap — neither ever triggers an index
// rebuild).
//
// Determinism: a cell sees only its node's events, in that node's
// arrival order, and report() merges cells in ascending (node, cause)
// order. So events_total, now, repair_minutes, node_gaps_seconds,
// by_cause, repair_fits and node_gap_fits are bit-identical for any
// interleaving of different nodes' events — in particular at any ingest
// shard count, as long as each node's events arrive in one order (one
// connection per node, as `hpcfail replay` sends them).
// system_gaps_seconds is not: the system-view gaps depend on how
// different nodes' events interleave.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "dist/fit.hpp"
#include "dist/window.hpp"
#include "trace/record.hpp"

namespace hpcfail::serve {

/// One root cause's windowed slice of a report.
struct CauseWindow {
  trace::RootCause cause = trace::RootCause::unknown;
  dist::SuffStats repair_minutes;
};

/// The windowed view of one system, as served by /report.
struct WindowReport {
  int system_id = 0;
  Seconds now = 0;     ///< window end (latest event time seen)
  Seconds window = 0;  ///< window length, seconds
  std::uint64_t events_total = 0;  ///< system's events since startup
  dist::SuffStats repair_minutes;      ///< windowed, all causes
  dist::SuffStats node_gaps_seconds;   ///< per-node view gaps
  dist::SuffStats system_gaps_seconds; ///< system-view gaps
  std::vector<CauseWindow> by_cause;   ///< ascending cause, non-empty only
  dist::FitReport repair_fits;         ///< empty when degenerate
  dist::FitReport node_gap_fits;       ///< empty when degenerate
  /// Compacted-ledger view (dataset retention): this system's raw events
  /// dropped past the retention horizon, surfaced as per-cause pooled
  /// repair SuffStats so /report still accounts for pre-horizon history.
  /// Zero/empty when retention never compacted anything for the system.
  std::uint64_t compacted_events = 0;
  std::vector<CauseWindow> compacted_by_cause;  ///< ascending cause
};

class LiveAnalytics {
 public:
  struct Options {
    Seconds bucket_seconds = kSecondsPerHour;
    std::size_t max_buckets = 24 * 14;  ///< two weeks of hourly buckets
  };

  LiveAnalytics() : LiveAnalytics(Options{}) {}
  explicit LiveAnalytics(Options options);

  /// Folds one event into the repair and gap cells.
  void observe(const trace::FailureRecord& r);

  /// Windowed report for one system. `window` <= 0 falls back to
  /// 24 hours. Systems never seen yield an all-empty report (callers map
  /// that to 404).
  WindowReport report(int system_id, Seconds window) const;

  /// Evicts every bucket entirely before `horizon` from all cells — the
  /// analytics side of dataset retention, so windows and the sealed
  /// dataset agree on what history exists. The evicted observations are
  /// discarded; of the compacted events only the repair minutes survive,
  /// in the dataset's per-(system, cause) ledger
  /// (trace::LiveDataset::compaction_cells). Evicted bucket indices become
  /// a floor: late arrivals below it are dropped, never resurrected
  /// (see dist::SlidingSuffStats::evict_before).
  void compact_before(Seconds horizon);

  /// Distinct systems observed, ascending.
  std::vector<int> system_ids() const;

  /// Latest event timestamp seen (the report clock); 0 before any event.
  Seconds latest_at() const noexcept { return latest_at_; }

  std::uint64_t events_observed() const noexcept { return events_; }

 private:
  struct Cell {
    dist::SlidingSuffStats repair_minutes;
    /// Node gaps, each filed under its later event's cause.
    dist::SlidingSuffStats node_gaps;
  };
  struct NodeRow {
    Seconds last_start = 0;  ///< set by the node's first event
    std::map<trace::RootCause, Cell> cells;
  };
  struct SystemRow {
    std::uint64_t events = 0;
    Seconds last_start = 0;  ///< set by the system's first event
    dist::SlidingSuffStats system_gaps;
    std::map<int, NodeRow> nodes;
  };

  dist::SlidingSuffStats::Options repair_opts_;
  dist::SlidingSuffStats::Options gap_opts_;
  /// Keyed by raw ids, which arrive from the network and are bounded
  /// only from below, so maps rather than dense vectors.
  std::map<int, SystemRow> systems_;
  Seconds latest_at_ = 0;
  std::uint64_t events_ = 0;
};

/// Renders a WindowReport as the /report JSON document.
std::string to_json(const WindowReport& report);

}  // namespace hpcfail::serve
