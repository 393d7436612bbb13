// Table 1 of the paper, encoded: the 22 LANL systems with hardware type,
// node/processor counts, per-node-category configuration, and production
// windows. Every analysis that normalizes by size, production time, or
// hardware type reads this catalog.
//
// Data-entry note: the left half of Table 1 (ids, node and processor
// counts, hardware types, SMP/NUMA split) is unambiguous in the paper. The
// right half (node categories) is reconstructed from the paper's table and
// prose (e.g. system 12's 4 GB vs 16 GB split, system 20's node 0 entering
// production late); where the flattened table text leaves a category's
// owner ambiguous, the assignment documented in DESIGN.md is used. The
// synthetic generator and all analyses depend only on fields that are
// unambiguous.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/time.hpp"
#include "trace/types.hpp"

namespace hpcfail::trace {

/// A group of identically-configured nodes within one system.
struct NodeCategory {
  int first_node = 0;     ///< first node id in this category
  int node_count = 0;     ///< number of nodes
  int procs_per_node = 0;
  double memory_gb = 0.0;
  int nics = 0;
  Seconds production_start = 0;
  Seconds production_end = 0;  ///< observation end for still-running nodes
};

/// One of the 22 systems.
struct SystemInfo {
  int id = 0;          ///< 1..22
  char hw_type = '?';  ///< 'A'..'H' (processor/memory chip model)
  bool numa = false;   ///< systems 19-22; the rest are SMP
  int nodes = 0;
  int procs = 0;
  std::vector<NodeCategory> categories;

  /// Earliest category production start.
  Seconds production_start() const;
  /// Latest category production end.
  Seconds production_end() const;
  /// Production span in (fractional) years.
  double production_years() const;

  /// Category containing `node`. Throws InvalidArgument for ids outside
  /// [0, nodes).
  const NodeCategory& category_for_node(int node) const;

  /// Workload type a node runs: LANL's graphics nodes 21-23 on system 20,
  /// front-end node 0 on the larger clusters (types D-F), compute
  /// otherwise.
  Workload workload_of(int node) const;
};

/// Longest production span, in years, that a catalog system may have. The
/// lifetime and trend analyses count a system's months in an int and size
/// vectors by them; a thousand years is 12,000 months.
inline constexpr double kMaxProductionYears = 1000.0;

/// The immutable site catalog.
class SystemCatalog {
 public:
  /// The LANL site of Table 1. Constructed once; thread-safe to read.
  static const SystemCatalog& lanl();

  std::span<const SystemInfo> systems() const noexcept { return systems_; }

  /// Returned by position() for an id the catalog does not hold.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Position of system `id` in systems(), or npos: a binary search over
  /// the ids, for callers that look a system up once per record.
  std::size_t position(int id) const noexcept;

  /// Throws InvalidArgument for ids outside 1..22.
  const SystemInfo& system(int id) const;

  /// True if `id` names a system in the catalog.
  bool contains(int id) const noexcept;

  /// All systems of one hardware type, in id order.
  std::vector<const SystemInfo*> systems_of_type(char hw_type) const;

  /// Hardware types present, in alphabetical order.
  std::vector<char> hardware_types() const;

  /// Total nodes / processors across the site (paper: 4750 and 24101).
  int total_nodes() const noexcept;
  int total_procs() const noexcept;

  /// End of the observation window (November 2005).
  static Seconds observation_end();

  /// Builds a custom catalog (for tests and what-if studies). Validates
  /// that system ids are distinct, node categories tile [0, nodes),
  /// processor counts add up and no system's production spans more than
  /// kMaxProductionYears.
  explicit SystemCatalog(std::vector<SystemInfo> systems);

 private:
  std::vector<SystemInfo> systems_;
  std::vector<int> ids_;                ///< ascending
  std::vector<std::size_t> positions_;  ///< into systems_, by ids_
};

}  // namespace hpcfail::trace
