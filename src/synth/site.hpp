// Per-study synthetic site profiles (ROADMAP item 4): generators
// calibrated to the published statistics of the foreign failure studies
// the adapter layer ingests — failure rate per processor-year, Weibull
// interarrival shape, lognormal repair moments, and root-cause mix. Each
// profile gives its adapter an unbounded self-describing test corpus:
// generate_site_trace() draws per-node Weibull renewal processes plus
// lognormal repairs deterministically from (profile, seed), and the
// calibration oracles (tests/calibration/site_calibration_test.cpp)
// verify the fitted parameters recover the published anchors within the
// tolerances recorded in EXPERIMENTS.md.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/time.hpp"
#include "synth/profile.hpp"
#include "trace/dataset.hpp"

namespace hpcfail::synth {

/// One study's published statistics, plus the system geometry the rates
/// are normalized by.
struct SiteProfile {
  std::string_view name;    ///< registry key; also the adapter name
  std::string_view study;   ///< citation (shown in reports and docs)
  std::string_view format;  ///< native foreign format (adapter name)

  int system_id = 1;
  int nodes = 0;
  int procs = 0;
  Seconds start = 0;            ///< observation window start
  double duration_years = 0.0;  ///< observation window length

  double failures_per_proc_year = 0.0;  ///< published rate anchor
  double weibull_shape = 0.0;           ///< interarrival shape anchor
  RepairMoments repair;                 ///< lognormal moment anchors (min)

  /// Root-cause probabilities, kAllRootCauses order; sums to 1.
  std::array<double, 6> cause_mix{};

  /// Detailed-cause mixtures per high-level cause (same index order).
  std::array<DetailMix, 6> detail_mix{};
};

/// Every registered site profile, ascending by name ("lu", "mistral",
/// "tan"). Immutable singletons.
std::span<const SiteProfile* const> all_site_profiles() noexcept;

/// The registered names joined with ", " (for --help and errors).
std::string site_profile_names();

/// Looks a profile up by name. Throws ValidationError listing the known
/// names on a miss.
const SiteProfile& site_profile(std::string_view name);

/// Generates a trace from the profile: per-node Weibull renewal
/// interarrivals (scale chosen so the mean gap matches the published
/// per-processor rate), lognormal repairs from the published
/// mean/median, and categorical cause/detail draws from the mixes.
/// Deterministic in (profile, seed, duration_scale); independent
/// per-node streams via mix_seed. `duration_scale` stretches the
/// observation window (the calibration oracles use > 1 to tighten
/// estimator tolerances). Throws InvalidArgument on a non-positive
/// scale, or one that stretches the window past
/// trace::kMaxProductionYears (1000 years).
trace::FailureDataset generate_site_trace(const SiteProfile& profile,
                                          std::uint64_t seed,
                                          double duration_scale = 1.0);

}  // namespace hpcfail::synth
