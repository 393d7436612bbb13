#include "trace/catalog.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace hpcfail::trace {

namespace {

// November 2005, the end of the released data ("now" in Table 1).
const Seconds kObservationEnd = to_epoch(2005, 11, 30);

Seconds ym(int year, int month) { return to_epoch(year, month, 1); }

NodeCategory cat(int first_node, int node_count, int procs_per_node,
                 double memory_gb, int nics, Seconds start, Seconds end) {
  return NodeCategory{first_node, node_count, procs_per_node,
                      memory_gb,  nics,       start, end};
}

// Single-category system helper.
SystemInfo sys1(int id, char hw, bool numa, int nodes, int procs_per_node,
                double mem_gb, int nics, Seconds start, Seconds end) {
  SystemInfo s;
  s.id = id;
  s.hw_type = hw;
  s.numa = numa;
  s.nodes = nodes;
  s.procs = nodes * procs_per_node;
  s.categories = {cat(0, nodes, procs_per_node, mem_gb, nics, start, end)};
  return s;
}

std::vector<SystemInfo> build_lanl_systems() {
  const Seconds end = kObservationEnd;
  std::vector<SystemInfo> v;
  v.reserve(22);

  // Small single-node early systems (types A-C).
  v.push_back(sys1(1, 'A', false, 1, 8, 16.0, 0, ym(1996, 6), ym(1999, 12)));
  v.push_back(sys1(2, 'B', false, 1, 32, 8.0, 1, ym(1996, 6), ym(2003, 12)));
  v.push_back(sys1(3, 'C', false, 1, 4, 1.0, 0, ym(1996, 6), ym(2003, 4)));

  // System 4: type D, the site's first large SMP cluster; a second batch
  // of nodes entered production in 12/2002.
  {
    SystemInfo s;
    s.id = 4;
    s.hw_type = 'D';
    s.numa = false;
    s.nodes = 164;
    s.procs = 328;
    s.categories = {cat(0, 128, 2, 1.0, 1, ym(2001, 4), end),
                    cat(128, 36, 2, 1.0, 1, ym(2002, 12), end)};
    v.push_back(s);
  }

  // Systems 5-12: type E 4-way SMP clusters. 5 and 6 were the first of
  // the type; 5 includes a pilot batch that ran 09/01-01/02 only.
  {
    SystemInfo s;
    s.id = 5;
    s.hw_type = 'E';
    s.numa = false;
    s.nodes = 256;
    s.procs = 1024;
    s.categories = {cat(0, 224, 4, 16.0, 2, ym(2001, 12), end),
                    cat(224, 32, 4, 16.0, 2, ym(2001, 9), ym(2002, 1))};
    v.push_back(s);
  }
  v.push_back(sys1(6, 'E', false, 128, 4, 8.0, 2, ym(2001, 12), end));
  v.push_back(sys1(7, 'E', false, 1024, 4, 16.0, 2, ym(2002, 5), end));
  v.push_back(sys1(8, 'E', false, 1024, 4, 32.0, 2, ym(2002, 5), end));
  v.push_back(sys1(9, 'E', false, 128, 4, 352.0, 2, ym(2002, 10), end));
  v.push_back(sys1(10, 'E', false, 128, 4, 8.0, 2, ym(2002, 10), end));
  v.push_back(sys1(11, 'E', false, 128, 4, 16.0, 2, ym(2002, 10), end));
  {
    // System 12: two categories differing only in memory (4 vs 16 GB),
    // the example called out in Section 2.1.
    SystemInfo s;
    s.id = 12;
    s.hw_type = 'E';
    s.numa = false;
    s.nodes = 32;
    s.procs = 128;
    s.categories = {cat(0, 16, 4, 4.0, 1, ym(2003, 9), end),
                    cat(16, 16, 4, 16.0, 1, ym(2003, 9), end)};
    v.push_back(s);
  }

  // Systems 13-18: type F 2-way SMP clusters, all commissioned 09/2003.
  v.push_back(sys1(13, 'F', false, 128, 2, 4.0, 1, ym(2003, 9), end));
  v.push_back(sys1(14, 'F', false, 256, 2, 4.0, 1, ym(2003, 9), end));
  v.push_back(sys1(15, 'F', false, 256, 2, 4.0, 1, ym(2003, 9), end));
  v.push_back(sys1(16, 'F', false, 256, 2, 4.0, 1, ym(2003, 9), end));
  v.push_back(sys1(17, 'F', false, 256, 2, 4.0, 1, ym(2003, 9), end));
  {
    // System 18 had a short-lived extra batch (03/05-06/05).
    SystemInfo s;
    s.id = 18;
    s.hw_type = 'F';
    s.numa = false;
    s.nodes = 512;
    s.procs = 1024;
    s.categories = {cat(0, 480, 2, 4.0, 1, ym(2003, 9), end),
                    cat(480, 32, 2, 4.0, 1, ym(2005, 3), ym(2005, 6))};
    v.push_back(s);
  }

  // Systems 19-21: type G, the first NUMA-era clusters (large
  // 128-processor nodes). 19 and 20 were the first anywhere to cluster so
  // many NUMA machines; 21 arrived about two years later.
  {
    SystemInfo s;
    s.id = 19;
    s.hw_type = 'G';
    s.numa = true;
    s.nodes = 16;
    s.procs = 2048;
    s.categories = {cat(0, 8, 128, 32.0, 4, ym(1996, 12), ym(2002, 9)),
                    cat(8, 8, 128, 64.0, 4, ym(1996, 12), ym(2002, 9))};
    v.push_back(s);
  }
  {
    // System 20: 48 long-lived 128-way nodes plus node 0, an 8-way node
    // in production only from 06/2005 (footnote 4 of the paper).
    SystemInfo s;
    s.id = 20;
    s.hw_type = 'G';
    s.numa = true;
    s.nodes = 49;
    s.procs = 6152;
    s.categories = {cat(0, 1, 8, 80.0, 0, ym(2005, 6), end),
                    cat(1, 48, 128, 128.0, 12, ym(1997, 1), end)};
    v.push_back(s);
  }
  {
    SystemInfo s;
    s.id = 21;
    s.hw_type = 'G';
    s.numa = true;
    s.nodes = 5;
    s.procs = 544;
    s.categories = {cat(0, 4, 128, 128.0, 4, ym(1998, 10), ym(2004, 12)),
                    cat(4, 1, 32, 16.0, 4, ym(1998, 10), ym(2004, 12))};
    v.push_back(s);
  }

  // System 22: type H, a single 256-way NUMA machine.
  v.push_back(sys1(22, 'H', true, 1, 256, 1024.0, 0, ym(2004, 11), end));
  return v;
}

}  // namespace

Seconds SystemInfo::production_start() const {
  HPCFAIL_ASSERT(!categories.empty());
  Seconds earliest = categories.front().production_start;
  for (const NodeCategory& c : categories) {
    earliest = std::min(earliest, c.production_start);
  }
  return earliest;
}

Seconds SystemInfo::production_end() const {
  HPCFAIL_ASSERT(!categories.empty());
  Seconds latest = categories.front().production_end;
  for (const NodeCategory& c : categories) {
    latest = std::max(latest, c.production_end);
  }
  return latest;
}

double SystemInfo::production_years() const {
  return years_between(production_start(), production_end());
}

const NodeCategory& SystemInfo::category_for_node(int node) const {
  HPCFAIL_EXPECTS(node >= 0 && node < nodes,
                  "node id outside system's node range");
  for (const NodeCategory& c : categories) {
    if (node >= c.first_node && node < c.first_node + c.node_count) return c;
  }
  throw LogicError("node categories do not tile the node range");
}

Workload SystemInfo::workload_of(int node) const {
  HPCFAIL_EXPECTS(node >= 0 && node < nodes,
                  "node id outside system's node range");
  // System 20's nodes 21-23 are the site's visualization nodes
  // (Section 5.1); the large SMP clusters (types E and F) dedicate node 0
  // as a front-end.
  if (id == 20 && node >= 21 && node <= 23) return Workload::graphics;
  if ((hw_type == 'E' || hw_type == 'F') && node == 0 && nodes > 1) {
    return Workload::frontend;
  }
  return Workload::compute;
}

SystemCatalog::SystemCatalog(std::vector<SystemInfo> systems)
    : systems_(std::move(systems)) {
  HPCFAIL_EXPECTS(!systems_.empty(), "catalog requires at least one system");
  for (const SystemInfo& s : systems_) {
    HPCFAIL_EXPECTS(s.id >= 1, "system ids must be >= 1");
    HPCFAIL_EXPECTS(!s.categories.empty(), "system without node categories");
    // Categories must tile [0, nodes) and processor counts must add up.
    std::vector<NodeCategory> cats = s.categories;
    std::sort(cats.begin(), cats.end(),
              [](const NodeCategory& a, const NodeCategory& b) {
                return a.first_node < b.first_node;
              });
    int next = 0;
    int procs = 0;
    for (const NodeCategory& c : cats) {
      HPCFAIL_EXPECTS(c.first_node == next,
                      "node categories must tile the node range");
      HPCFAIL_EXPECTS(c.node_count > 0, "empty node category");
      HPCFAIL_EXPECTS(c.production_start < c.production_end,
                      "category production window is empty");
      next += c.node_count;
      procs += c.node_count * c.procs_per_node;
    }
    HPCFAIL_EXPECTS(next == s.nodes, "category node counts do not add up");
    HPCFAIL_EXPECTS(procs == s.procs,
                    "category processor counts do not add up");
    HPCFAIL_EXPECTS(years_between(s.production_start(), s.production_end()) <=
                        kMaxProductionYears,
                    "system production spans more than 1000 years");
  }
  std::vector<std::pair<int, std::size_t>> by_id;
  by_id.reserve(systems_.size());
  for (std::size_t at = 0; at < systems_.size(); ++at) {
    by_id.emplace_back(systems_[at].id, at);
  }
  std::sort(by_id.begin(), by_id.end());
  for (const auto& [id, at] : by_id) {
    HPCFAIL_EXPECTS(ids_.empty() || ids_.back() != id,
                    "system ids must be distinct");
    ids_.push_back(id);
    positions_.push_back(at);
  }
}

const SystemCatalog& SystemCatalog::lanl() {
  static const SystemCatalog catalog{build_lanl_systems()};
  return catalog;
}

std::size_t SystemCatalog::position(int id) const noexcept {
  // A branch-free search for the last id not above `id`: records arrive
  // in time order, so the system ids they ask for follow no pattern a
  // branch predictor could learn.
  const int* base = ids_.data();
  std::size_t n = ids_.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    base = base[half] <= id ? base + half : base;
    n -= half;
  }
  if (*base != id) return npos;
  return positions_[static_cast<std::size_t>(base - ids_.data())];
}

const SystemInfo& SystemCatalog::system(int id) const {
  const std::size_t at = position(id);
  if (at == npos) {
    throw InvalidArgument("unknown system id " + std::to_string(id));
  }
  return systems_[at];
}

bool SystemCatalog::contains(int id) const noexcept {
  return position(id) != npos;
}

std::vector<const SystemInfo*> SystemCatalog::systems_of_type(
    char hw_type) const {
  std::vector<const SystemInfo*> out;
  for (const SystemInfo& s : systems_) {
    if (s.hw_type == hw_type) out.push_back(&s);
  }
  return out;
}

std::vector<char> SystemCatalog::hardware_types() const {
  std::vector<char> types;
  for (const SystemInfo& s : systems_) {
    if (std::find(types.begin(), types.end(), s.hw_type) == types.end()) {
      types.push_back(s.hw_type);
    }
  }
  std::sort(types.begin(), types.end());
  return types;
}

int SystemCatalog::total_nodes() const noexcept {
  int total = 0;
  for (const SystemInfo& s : systems_) total += s.nodes;
  return total;
}

int SystemCatalog::total_procs() const noexcept {
  int total = 0;
  for (const SystemInfo& s : systems_) total += s.procs;
  return total;
}

Seconds SystemCatalog::observation_end() { return kObservationEnd; }

}  // namespace hpcfail::trace
