#include "trace/index.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>

#include "common/error.hpp"
#include "common/radix.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"

namespace hpcfail::trace {

namespace {

/// Start-projected binary search: the subrange of the start-sorted view
/// whose starts lie in [from, to).
ColumnsView window_of(ColumnsView view, Seconds from, Seconds to) {
  if (from >= to) return view.subview(0, 0);
  const std::span<const Seconds> starts = view.starts();
  const auto lo = std::lower_bound(starts.begin(), starts.end(), from);
  const auto hi = std::lower_bound(lo, starts.end(), to);
  return view.subview(static_cast<std::size_t>(lo - starts.begin()),
                      static_cast<std::size_t>(hi - lo));
}

/// Same search over a posting list of start times.
std::span<const Seconds> window_of(std::span<const Seconds> starts,
                                   Seconds from, Seconds to) {
  if (from >= to) return starts.subspan(0, 0);
  const auto lo = std::lower_bound(starts.begin(), starts.end(), from);
  const auto hi = std::lower_bound(lo, starts.end(), to);
  return starts.subspan(static_cast<std::size_t>(lo - starts.begin()),
                        static_cast<std::size_t>(hi - lo));
}

std::vector<double> gaps_of(std::span<const Seconds> starts) {
  std::vector<double> gaps;
  if (starts.size() >= 2) {
    gaps.reserve(starts.size() - 1);
    for (std::size_t i = 1; i < starts.size(); ++i) {
      gaps.push_back(seconds_between(starts[i - 1], starts[i]));
    }
  }
  return gaps;
}

/// Row numbers 0..ids.size()-1 in ascending id order, ties in row order:
/// one stable radix sort of the ids, mapped to order-preserving keys.
std::vector<std::uint32_t> rows_by(std::span<const int> ids) {
  std::vector<std::uint64_t> keys(ids.size());
  std::vector<std::uint32_t> rows(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    keys[i] = static_cast<std::uint32_t>(ids[i]) ^ 0x80000000u;
    rows[i] = static_cast<std::uint32_t>(i);
  }
  radix_sort(keys, rows);
  return rows;
}

template <typename T>
void gather(const std::vector<T>& src, std::span<const std::uint32_t> rows,
            std::vector<T>& dst) {
  for (std::size_t i = 0; i < rows.size(); ++i) dst[i] = src[rows[i]];
}

}  // namespace

// ---------------------------------------------------------------------------
// DatasetIndex

DatasetIndex::DatasetIndex(const ColumnStore& columns)
    : base_(columns) {
  hpcfail::obs::ScopedTimer timer("trace.index");
  const std::size_t n = columns.size();

  // The per-system partition: the rows stably sorted by system id, each
  // column gathered by its own pool task. The base columns are (start,
  // system, node)-sorted, so each system's slice comes out (start,
  // node)-sorted. The columns are sized here, from the calling thread's
  // malloc arena: sized in the workers, they went back to the workers'
  // arenas when the dataset died, and a batch_pipeline pass pinned to
  // one CPU peaked 28-41 MB higher.
  const std::vector<std::uint32_t> rows = rows_by(columns.system_id);
  by_system_.resize(n);
  std::vector<std::function<void()>> gathers;
  ColumnStore::for_each_column([&](auto column, auto) {
    gathers.emplace_back([&, column] {
      gather(columns.*column, rows, by_system_.*column);
    });
  });
  parallel_for(gathers.size(), [&gathers](std::size_t k) { gathers[k](); });
  for (std::size_t begin = 0; begin < n;) {
    const int system_id = by_system_.system_id[begin];
    std::size_t end = begin + 1;
    while (end < n && by_system_.system_id[end] == system_id) ++end;
    SystemSlice slice;
    slice.system_id = system_id;
    slice.begin = begin;
    slice.end = end;
    systems_.push_back(slice);
    begin = end;
  }

  // Per-(system, node) posting lists, in parallel over systems: each
  // system's rows stably sorted by node id, so every node's starts stay
  // ascending. They land in the system's own slice of node_starts_ (the
  // partition's offsets), so workers never share output and the result
  // is identical at any thread count.
  node_starts_.resize(n);
  std::vector<std::vector<NodeSlice>> per_system_nodes(systems_.size());
  parallel_for(systems_.size(), [this, &per_system_nodes](std::size_t si) {
    const SystemSlice& s = systems_[si];
    const std::vector<std::uint32_t> order = rows_by(
        std::span(by_system_.node_id).subspan(s.begin, s.end - s.begin));
    std::vector<NodeSlice>& nodes = per_system_nodes[si];
    for (std::size_t k = 0; k < order.size(); ++k) {
      const std::size_t row = s.begin + order[k];
      const std::size_t at = s.begin + k;
      node_starts_[at] = by_system_.start[row];
      const int node_id = by_system_.node_id[row];
      if (nodes.empty() || nodes.back().node_id != node_id) {
        nodes.push_back({node_id, at, at});
      }
      nodes.back().end = at + 1;
    }
  });
  std::size_t total_nodes = 0;
  for (const auto& nodes : per_system_nodes) total_nodes += nodes.size();
  node_slices_.reserve(total_nodes);
  for (std::size_t si = 0; si < systems_.size(); ++si) {
    systems_[si].nodes_begin = node_slices_.size();
    node_slices_.insert(node_slices_.end(), per_system_nodes[si].begin(),
                        per_system_nodes[si].end());
    systems_[si].nodes_end = node_slices_.size();
  }

  if (obs::enabled()) {
    obs::registry().gauge("dataset.index_records")
        .set(static_cast<double>(base_.size()));
  }
}

DatasetView DatasetIndex::all() const noexcept {
  DatasetView view;
  view.index_ = this;
  view.view_ = base_;
  return view;
}

std::vector<int> DatasetIndex::system_ids() const {
  std::vector<int> ids;
  ids.reserve(systems_.size());
  for (const SystemSlice& s : systems_) ids.push_back(s.system_id);
  return ids;
}

const DatasetIndex::SystemSlice* DatasetIndex::find_system(
    int system_id) const noexcept {
  const auto it = std::lower_bound(
      systems_.begin(), systems_.end(), system_id,
      [](const SystemSlice& s, int id) { return s.system_id < id; });
  if (it == systems_.end() || it->system_id != system_id) return nullptr;
  return &*it;
}

void DatasetIndex::count_view_hit() const noexcept {
  if (!obs::enabled()) return;
  // Resolved lazily so that obs enabled *after* the index was built still
  // counts hits; registry().counter() is idempotent, so a race between
  // resolvers just stores the same pointer twice.
  obs::Counter* counter = view_hits_.load(std::memory_order_acquire);
  if (counter == nullptr) {
    counter = &obs::registry().counter("dataset.view_hits");
    view_hits_.store(counter, std::memory_order_release);
  }
  counter->add(1);
}

// ---------------------------------------------------------------------------
// DatasetView

Seconds DatasetView::first_start() const {
  HPCFAIL_EXPECTS(!view_.empty(), "first_start of empty view");
  return view_.starts().front();
}

Seconds DatasetView::last_end() const {
  HPCFAIL_EXPECTS(!view_.empty(), "last_end of empty view");
  return view_.last_end();
}

DatasetView DatasetView::for_system(int system_id) const {
  DatasetView view = *this;
  view.system_ = system_id;
  view.view_ = {};
  if (index_ == nullptr) return view;
  index_->count_view_hit();
  if (system_.has_value()) {
    // Already scoped: same system is a no-op, a different one is empty.
    if (*system_ == system_id) view.view_ = view_;
    return view;
  }
  const DatasetIndex::SystemSlice* slice = index_->find_system(system_id);
  if (slice == nullptr) return view;
  const ColumnsView partition(&index_->by_system_, slice->begin,
                              slice->end - slice->begin);
  view.view_ = windowed_ ? window_of(partition, from_, to_) : partition;
  return view;
}

DatasetView DatasetView::between(Seconds from, Seconds to) const {
  DatasetView view = *this;
  if (windowed_) {
    view.from_ = std::max(from_, from);
    view.to_ = std::min(to_, to);
  } else {
    view.from_ = from;
    view.to_ = to;
  }
  view.windowed_ = true;
  // The current view is start-sorted whatever its scope, so narrowing
  // never needs to consult the index again.
  view.view_ = window_of(view_, view.from_, view.to_);
  if (index_ != nullptr) index_->count_view_hit();
  return view;
}

std::vector<double> DatasetView::node_interarrivals(int node_id) const {
  HPCFAIL_EXPECTS(system_.has_value(),
                  "node_interarrivals requires a system-scoped view");
  if (index_ == nullptr) return {};
  index_->count_view_hit();
  const DatasetIndex::SystemSlice* slice = index_->find_system(*system_);
  if (slice == nullptr) return {};
  const auto nodes_begin = index_->node_slices_.begin() +
                           static_cast<std::ptrdiff_t>(slice->nodes_begin);
  const auto nodes_end = index_->node_slices_.begin() +
                         static_cast<std::ptrdiff_t>(slice->nodes_end);
  const auto it = std::lower_bound(
      nodes_begin, nodes_end, node_id,
      [](const DatasetIndex::NodeSlice& s, int id) { return s.node_id < id; });
  if (it == nodes_end || it->node_id != node_id) return {};
  std::span<const Seconds> starts(index_->node_starts_.data() + it->begin,
                                  it->end - it->begin);
  if (windowed_) starts = window_of(starts, from_, to_);
  return gaps_of(starts);
}

std::vector<double> DatasetView::system_interarrivals() const {
  HPCFAIL_EXPECTS(system_.has_value(),
                  "system_interarrivals requires a system-scoped view");
  if (index_ != nullptr) index_->count_view_hit();
  return gaps_of(view_.starts());
}

std::vector<NodeStarts> DatasetView::node_starts() const {
  HPCFAIL_EXPECTS(system_.has_value(),
                  "node_starts requires a system-scoped view");
  std::vector<NodeStarts> nodes;
  if (index_ == nullptr) return nodes;
  index_->count_view_hit();
  const DatasetIndex::SystemSlice* slice = index_->find_system(*system_);
  if (slice == nullptr) return nodes;
  nodes.reserve(slice->nodes_end - slice->nodes_begin);
  for (std::size_t ni = slice->nodes_begin; ni < slice->nodes_end; ++ni) {
    const DatasetIndex::NodeSlice& node = index_->node_slices_[ni];
    std::span<const Seconds> starts(index_->node_starts_.data() + node.begin,
                                    node.end - node.begin);
    if (windowed_) starts = window_of(starts, from_, to_);
    if (!starts.empty()) nodes.push_back({node.node_id, starts});
  }
  return nodes;
}

std::vector<NodeInterarrivalGroup> DatasetView::node_interarrival_groups(
    std::size_t min_gaps) const {
  HPCFAIL_EXPECTS(system_.has_value(),
                  "node_interarrival_groups requires a system-scoped view");
  std::vector<NodeInterarrivalGroup> groups;
  for (const NodeStarts& node : node_starts()) {
    // n records -> n-1 gaps; skip nodes below the floor.
    if (node.starts.size() < min_gaps + 1) continue;
    groups.push_back({node.node_id, gaps_of(node.starts)});
  }
  return groups;
}

std::map<int, std::size_t> DatasetView::failures_per_node() const {
  HPCFAIL_EXPECTS(system_.has_value(),
                  "failures_per_node requires a system-scoped view");
  std::map<int, std::size_t> counts;
  for (const NodeStarts& node : node_starts()) {
    counts[node.node_id] = node.starts.size();
  }
  return counts;
}

std::vector<double> DatasetView::repair_times_minutes() const {
  if (index_ != nullptr) index_->count_view_hit();
  return view_.repair_times_minutes();
}

double DatasetView::total_downtime_minutes() const noexcept {
  return view_.total_downtime_minutes();
}

FailureDataset DatasetView::materialize() const {
  // View columns are already (start, system, node)-sorted and were
  // validated when the source dataset was built.
  return FailureDataset::from_sorted_columns(view_.to_store());
}

}  // namespace hpcfail::trace
