// Fault-injection campaign engine: the library's one failure simulator,
// from a single job on one node to a (scenario x policy x replicate) grid.
//
// A CampaignSpec is declarative: scenarios supply the cluster, workload
// and fault model (scripted lists, renewal draws from fitted families or
// per-node rates, or trace replay — sim/scenario.hpp); policies supply
// placement and checkpointing rules (sim/policy.hpp). Campaign::run()
// executes every (cell, replicate) run as an independent shard on the
// common thread-pool and summarizes each cell with bootstrap confidence
// intervals, one pool task per (cell, metric). Each run draws its faults
// lazily, as they are delivered (DESIGN §8).
//
// Determinism contract: run (cell, replicate) is simulated with
// Rng(mix_seed(spec.seed, cell, replicate)) and touches no shared
// mutable state, so campaign results are BIT-IDENTICAL at any thread
// count and across checkpoint-resume (asserted under the `campaign`
// ctest label). Each summary bootstrap draws its resamples from its own
// stream keyed on (fingerprint, cell, metric), so the summaries are
// equally reproducible.
//
// Resume semantics: a CampaignCheckpoint persists whole finished runs
// (text file, round-trip-exact doubles) plus the spec fingerprint. An
// interrupted shard is simply re-run from its forked stream — partial
// shard state never needs to be saved for the results to match an
// uninterrupted campaign exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/policy.hpp"
#include "sim/scenario.hpp"
#include "stats/bootstrap.hpp"

namespace hpcfail::sim {

/// The outcome of one simulated run (one replicate of one cell). All
/// work/overhead figures are node-seconds (wall seconds x gang width);
/// their sum equals the node-seconds the workload's nodes spent busy.
struct CampaignRunResult {
  std::uint32_t cell = 0;       ///< index into the scenario x policy grid
  std::uint32_t replicate = 0;  ///< replicate index within the cell

  std::uint64_t faults_injected = 0;  ///< faults delivered before finish
  std::uint64_t faults_absorbed = 0;  ///< delivered onto already-down nodes
  std::uint64_t interruptions = 0;    ///< job kills caused by faults

  double makespan = 0.0;             ///< seconds until the last job finished
  double useful_work = 0.0;          ///< node-seconds of retained progress
  double wasted_work = 0.0;          ///< node-seconds lost to kills
  double checkpoint_overhead = 0.0;  ///< node-seconds writing checkpoints
  double restart_overhead = 0.0;     ///< node-seconds reloading after kills
  double downtime = 0.0;             ///< node-seconds failed nodes spent down
  double repair_wait = 0.0;          ///< node-seconds spent queued for a crew

  /// Fraction of busy node-seconds that was not useful work; 0 for an
  /// all-zero result.
  double waste_fraction() const;

  friend bool operator==(const CampaignRunResult&,
                         const CampaignRunResult&) = default;
};

/// Per-cell statistical summary: bootstrap percentile CIs over the
/// cell's replicates for each headline metric.
struct CampaignCellSummary {
  std::string scenario;
  std::string policy;
  std::size_t runs = 0;
  std::uint64_t faults_injected = 0;  ///< summed over the cell's runs
  stats::BootstrapResult makespan;
  stats::BootstrapResult waste_fraction;
  stats::BootstrapResult interruptions;
};

/// A finished campaign: every run (ordered by (cell, replicate)) plus
/// one summary per (scenario, policy) cell.
struct CampaignResult {
  std::vector<CampaignRunResult> runs;
  std::vector<CampaignCellSummary> cells;

  std::uint64_t total_faults_injected() const;
};

/// Persistent campaign progress: the spec fingerprint it belongs to and
/// every run completed so far. Only whole runs are saved — see the
/// resume semantics above.
struct CampaignCheckpoint {
  std::uint64_t fingerprint = 0;
  std::size_t total_runs = 0;
  std::vector<CampaignRunResult> completed;  ///< sorted by (cell, replicate)

  bool complete() const { return completed.size() >= total_runs; }
};

/// Reads a checkpoint written by save_campaign_checkpoint. Throws
/// IoError if the file cannot be opened, ParseError on malformed
/// content, including a signed integer or one too large for its field.
CampaignCheckpoint load_campaign_checkpoint(const std::string& path);

/// Writes `checkpoint` to `path` (text, version-tagged, doubles printed
/// round-trip exact). The content goes to `<path>.tmp`, is flushed and
/// fsync'd, then renamed over `path`, so a failed save leaves the
/// previous file intact. Throws IoError on failure.
void save_campaign_checkpoint(const std::string& path,
                              const CampaignCheckpoint& checkpoint);

/// Declarative description of a whole campaign. Cells enumerate the
/// scenario x policy grid in row-major order (scenario-major).
struct CampaignSpec {
  std::vector<CampaignScenario> scenarios;
  std::vector<CampaignPolicy> policies;
  std::size_t runs_per_cell = 0;
  std::uint64_t seed = 42;
  stats::BootstrapOptions ci;  ///< summary CI replicates/confidence
};

/// Validates and executes a CampaignSpec. Immutable after construction;
/// run()/run_partial() are const and safe to call from one thread while
/// shards execute on the pool.
class Campaign {
 public:
  /// Validates the spec (non-empty grid, unique names, well-formed
  /// scenarios and policies); throws InvalidArgument on violations.
  explicit Campaign(CampaignSpec spec);

  const CampaignSpec& spec() const { return spec_; }
  std::size_t cell_count() const;
  std::size_t total_runs() const;

  /// Stable 64-bit digest of the spec (scenarios, policies, seed, run
  /// counts). Checkpoints carry it so a resume against a different spec
  /// is rejected instead of producing silently mixed results.
  std::uint64_t fingerprint() const { return fingerprint_; }

  const CampaignScenario& scenario_of_cell(std::size_t cell) const;
  const CampaignPolicy& policy_of_cell(std::size_t cell) const;

  /// The materialized injection schedule of one run, in delivery order.
  /// Scripted scenarios return the script; renewal scenarios sample each
  /// node's stream from the run's deterministic RNG. Exposed for tests and
  /// the CLI's --dry-run. Throws InvalidArgument on an infinite horizon.
  std::vector<InjectedFault> schedule_for(std::size_t cell,
                                          std::size_t replicate) const;

  /// Simulates one run to completion. Deterministic function of
  /// (spec, cell, replicate) only.
  CampaignRunResult execute_run(std::size_t cell,
                                std::size_t replicate) const;

  /// Runs every run not already in `resume` (all of them when null) on
  /// the shared thread pool and returns the full, summarized campaign.
  /// Throws ValidationError if `resume` belongs to a different spec.
  CampaignResult run(const CampaignCheckpoint* resume = nullptr) const;

  /// Runs at most `max_new_runs` outstanding runs (in (cell, replicate)
  /// order) and returns the advanced checkpoint; does not summarize.
  /// Simulates a campaign interrupted mid-flight for resume testing and
  /// incremental execution.
  CampaignCheckpoint run_partial(
      std::size_t max_new_runs,
      const CampaignCheckpoint* resume = nullptr) const;

  /// Summarizes a *complete* checkpoint into a CampaignResult without
  /// re-running anything. Throws ValidationError on fingerprint mismatch
  /// or an incomplete checkpoint.
  CampaignResult summarize(const CampaignCheckpoint& checkpoint) const;

 private:
  CampaignResult assemble(std::vector<CampaignRunResult> runs) const;

  CampaignSpec spec_;
  std::uint64_t fingerprint_ = 0;
  /// Per scenario: node ids, fewest expected faults first, and each
  /// node's position in that order (its placement slot when ranked).
  std::vector<std::vector<int>> ranked_nodes_;
  std::vector<std::vector<int>> rank_of_;
  /// Per cell: hazard-aware segment ends (empty under a fixed interval).
  std::vector<std::vector<double>> segment_ends_;
};

}  // namespace hpcfail::sim
