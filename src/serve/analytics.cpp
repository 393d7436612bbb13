#include "serve/analytics.hpp"

#include <map>
#include <utility>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "trace/types.hpp"

namespace hpcfail::serve {

namespace {

/// Gap floor of 1 second: the traces have second resolution and
/// simultaneous failures yield exact zeros (same convention as the
/// batch interarrival fits). Repair minutes keep SuffStats' default
/// floor.
constexpr double kGapFloorSeconds = 1.0;

/// Adds the gap from `last` to `at` and advances `last` — unless the
/// gap is negative (an out-of-order arrival), which is skipped.
void add_gap(dist::SlidingSuffStats& gaps, Seconds& last, Seconds at) {
  const Seconds gap = at - last;
  if (gap < 0) return;
  gaps.add(at, static_cast<double>(gap));
  last = at;
}

}  // namespace

LiveAnalytics::LiveAnalytics(Options options) {
  repair_opts_.bucket_seconds = options.bucket_seconds;
  repair_opts_.max_buckets = options.max_buckets;
  gap_opts_ = repair_opts_;
  gap_opts_.floor_at = kGapFloorSeconds;
}

void LiveAnalytics::observe(const trace::FailureRecord& r) {
  // The first event sets the clock, which may lie before the epoch.
  if (events_++ == 0 || r.start > latest_at_) latest_at_ = r.start;

  auto sit = systems_.find(r.system_id);
  if (sit == systems_.end()) {
    SystemRow fresh;
    fresh.system_gaps = dist::SlidingSuffStats(gap_opts_);
    sit = systems_.emplace(r.system_id, std::move(fresh)).first;
  }
  SystemRow& sys = sit->second;
  if (sys.events++ == 0) {
    sys.last_start = r.start;
  } else {
    add_gap(sys.system_gaps, sys.last_start, r.start);
  }

  const auto [nit, first_node_event] = sys.nodes.try_emplace(r.node_id);
  NodeRow& node = nit->second;
  auto cit = node.cells.find(r.cause);
  if (cit == node.cells.end()) {
    Cell fresh{dist::SlidingSuffStats(repair_opts_),
               dist::SlidingSuffStats(gap_opts_)};
    cit = node.cells.emplace(r.cause, std::move(fresh)).first;
  }
  Cell& c = cit->second;
  c.repair_minutes.add(r.start, r.downtime_minutes());
  // Per-node gap: consecutive failures of the same node, attributed at
  // (and to the cause of) the later event.
  if (first_node_event) {
    node.last_start = r.start;
  } else {
    add_gap(c.node_gaps, node.last_start, r.start);
  }
}

void LiveAnalytics::compact_before(Seconds horizon) {
  for (auto& [system_id, sys] : systems_) {
    sys.system_gaps.evict_before(horizon);
    for (auto& [node_id, node] : sys.nodes) {
      for (auto& [cause, c] : node.cells) {
        c.repair_minutes.evict_before(horizon);
        c.node_gaps.evict_before(horizon);
      }
    }
  }
}

WindowReport LiveAnalytics::report(int system_id, Seconds window) const {
  WindowReport out;
  out.system_id = system_id;
  out.now = latest_at_;
  out.window = window > 0 ? window : 24 * kSecondsPerHour;

  out.node_gaps_seconds.floor_at = kGapFloorSeconds;
  out.system_gaps_seconds.floor_at = kGapFloorSeconds;

  const auto sys = systems_.find(system_id);
  if (sys != systems_.end()) {
    out.events_total = sys->second.events;
    out.system_gaps_seconds =
        sys->second.system_gaps.window_stats(out.now, out.window);
    std::map<trace::RootCause, dist::SuffStats> by_cause;
    for (const auto& [node_id, node] : sys->second.nodes) {
      for (const auto& [cause, c] : node.cells) {
        const dist::SuffStats repair =
            c.repair_minutes.window_stats(out.now, out.window);
        out.repair_minutes.merge(repair);
        out.node_gaps_seconds.merge(
            c.node_gaps.window_stats(out.now, out.window));
        if (repair.n > 0) by_cause[cause].merge(repair);
      }
    }
    for (const auto& [cause, stats] : by_cause) {
      out.by_cause.push_back(CauseWindow{cause, stats});
    }
  }

  try {
    out.repair_fits = dist::fit_report_from_stats(out.repair_minutes);
  } catch (const Error&) {
    // Degenerate window (empty or constant): serve moments without fits.
  }
  try {
    out.node_gap_fits = dist::fit_report_from_stats(out.node_gaps_seconds);
  } catch (const Error&) {
  }
  return out;
}

std::vector<int> LiveAnalytics::system_ids() const {
  std::vector<int> ids;
  ids.reserve(systems_.size());
  for (const auto& [id, row] : systems_) ids.push_back(id);
  return ids;
}

namespace {

void append_stats(std::string& out, const char* name,
                  const dist::SuffStats& s) {
  out += '"';
  out += name;
  out += "\":{\"n\":" + std::to_string(s.n);
  if (s.n > 0) {
    out += ",\"mean\":" + format_double(s.mean());
    out += ",\"cv2\":" + format_double(s.cv_squared());
    out += ",\"min\":" + format_double(s.min);
    out += ",\"max\":" + format_double(s.max);
  }
  out += '}';
}

void append_fits(std::string& out, const char* name,
                 const dist::FitReport& fits) {
  out += '"';
  out += name;
  out += "\":[";
  for (std::size_t i = 0; i < fits.size(); ++i) {
    const dist::FitResult& f = fits[i];
    if (i != 0) out += ',';
    out += "{\"family\":\"" + dist::to_string(f.family) + '"';
    out += ",\"nll\":" + format_double(f.nll);
    out += ",\"aic\":" + format_double(f.aic);
    out += ",\"model\":\"" + json_escape(f.model->describe()) + "\"}";
  }
  out += ']';
}

}  // namespace

std::string to_json(const WindowReport& report) {
  std::string out;
  out.reserve(1024);
  out += "{\"schema\":\"hpcfail.serve.report\",\"version\":1";
  out += ",\"system\":" + std::to_string(report.system_id);
  out += ",\"window_seconds\":" + std::to_string(report.window);
  out += ",\"now\":\"" + format_timestamp(report.now) + '"';
  out += ",\"events_total\":" + std::to_string(report.events_total);
  out += ',';
  append_stats(out, "repair_minutes", report.repair_minutes);
  out += ',';
  append_stats(out, "node_gaps_seconds", report.node_gaps_seconds);
  out += ',';
  append_stats(out, "system_gaps_seconds", report.system_gaps_seconds);
  out += ",\"by_cause\":[";
  for (std::size_t i = 0; i < report.by_cause.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"cause\":\"" + trace::to_string(report.by_cause[i].cause) + "\",";
    append_stats(out, "repair_minutes", report.by_cause[i].repair_minutes);
    out += '}';
  }
  out += "],";
  append_fits(out, "repair_fits", report.repair_fits);
  out += ',';
  append_fits(out, "node_gap_fits", report.node_gap_fits);
  out += ",\"compacted\":{\"events\":" +
         std::to_string(report.compacted_events);
  out += ",\"by_cause\":[";
  for (std::size_t i = 0; i < report.compacted_by_cause.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"cause\":\"" +
           trace::to_string(report.compacted_by_cause[i].cause) + "\",";
    append_stats(out, "repair_minutes",
                 report.compacted_by_cause[i].repair_minutes);
    out += '}';
  }
  out += "]}";
  out += '}';
  return out;
}

}  // namespace hpcfail::serve
