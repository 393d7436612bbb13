// Windowed live analytics for the streaming daemon.
//
// LiveAnalytics keeps one row per system: the system's event count, its
// last failure start, the system-view gap window, each node's last
// failure start, and per root cause one sliding window of repair minutes
// and one of per-node failure gaps (Section 5.3's two views). An event
// updates one system row in O(log buckets), plus a refold of one bucket
// when its entry does not sort last there. report() merges the covered
// buckets of each cause, in ascending cause order, and derives the
// windowed moments (mean, C²) and a streaming FitReport
// (dist::fit_report_from_stats) — no trace rescan, no history-sized state:
// each window keeps only the span of max_buckets × bucket_seconds behind
// its newest entry, so memory is bounded by that span and a report costs
// O(causes x buckets) regardless of how many events were ingested. A
// longer requested window is clamped to the span.
//
// Windows are anchored at the *trace* clock (the latest event timestamp
// seen), not the wall clock, so replayed historical traces report
// sensibly. An event whose repair entry no window took (older than the
// span behind its window's newest entry, or below the retention horizon)
// counts into dropped_events(). Not thread-safe: the server serializes
// observe()/report() behind its own mutex (both are cheap — neither ever
// triggers an index rebuild).
//
// Determinism: a window bucket folds its entries sorted by (start, node,
// value), whatever order they arrived in. So in a report taken after the
// last event, events_total, now, repair_minutes, by_cause and repair_fits
// depend only on which events arrived, in any order; node_gaps_seconds
// and node_gap_fits depend on that plus each node's own arrival order —
// in particular they are bit-identical at any ingest shard count, as long
// as each node's events arrive in one order (one connection per node, as
// `hpcfail replay` sends them). system_gaps_seconds is not: the
// system-view gaps depend on how different nodes' events interleave.
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
  Seconds window = 0;  ///< window length, seconds, clamped to the span
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
  /// Throws InvalidArgument on a non-positive bucket width or count.
  explicit LiveAnalytics(Options options);

  /// Folds one event into its system's repair and gap windows.
  void observe(const trace::FailureRecord& r);

  /// Windowed report for one system. `window` <= 0 falls back to
  /// 24 hours, and a window longer than the span (max_buckets ×
  /// bucket_seconds) is clamped to it; WindowReport::window holds the
  /// clamped value. Systems never seen yield an all-empty report (callers
  /// map that to 404).
  WindowReport report(int system_id, Seconds window) const;

  /// Evicts every bucket entirely before `horizon` from all windows,
  /// present and future — the analytics side of dataset retention, so
  /// windows and the sealed dataset agree on what history exists. The
  /// evicted observations are discarded; of the compacted events only the
  /// repair minutes survive, in the dataset's per-(system, cause) ledger
  /// (trace::LiveDataset::compaction_cells). Late arrivals below the
  /// horizon are refused and counted, never resurrected (see
  /// dist::SlidingSuffStats::evict_before).
  void compact_before(Seconds horizon);

  /// Distinct systems observed, ascending.
  std::vector<int> system_ids() const;

  /// Latest event timestamp seen (the report clock); 0 before any event.
  Seconds latest_at() const noexcept { return latest_at_; }

  std::uint64_t events_observed() const noexcept { return events_; }

  /// Events whose repair entry no window took.
  std::uint64_t dropped_events() const noexcept { return dropped_; }

 private:
  struct CauseRow {
    dist::SlidingSuffStats repair_minutes;
    /// Node gaps, each filed under its later event's cause.
    dist::SlidingSuffStats node_gaps;
  };
  struct SystemRow {
    std::uint64_t events = 0;
    Seconds last_start = 0;  ///< set by the system's first event
    dist::SlidingSuffStats system_gaps;
    std::map<int, Seconds> node_last_start;  ///< set by a node's first event
    std::map<trace::RootCause, CauseRow> causes;
  };

  /// Empty windows that new rows copy. compact_before trims them too, so
  /// a window created later refuses what the horizon evicted.
  dist::SlidingSuffStats repair_window_;
  dist::SlidingSuffStats gap_window_;
  /// Keyed by raw ids, which arrive from the network and are bounded
  /// only from below, so maps rather than dense vectors.
  std::map<int, SystemRow> systems_;
  Seconds latest_at_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Renders a WindowReport as the /report JSON document.
std::string to_json(const WindowReport& report);

}  // namespace hpcfail::serve
