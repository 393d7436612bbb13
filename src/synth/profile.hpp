// Per-hardware-type failure profiles: the root-cause mixtures of Fig 1,
// the detailed-cause findings of Section 4 (memory dominant everywhere,
// the type-E CPU design flaw, per-type top software causes), and
// repair-time moments per cause anchored to Table 2 with the per-type
// scaling of Fig 7(b)/(c).
#pragma once

#include <array>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "trace/types.hpp"

namespace hpcfail::synth {

/// Lognormal repair-time moments in minutes (Table 2's units). The
/// generator converts these to a LogNormal via mean/median matching.
struct RepairMoments {
  double mean_minutes = 0.0;
  double median_minutes = 0.0;
};

/// Discrete mixture over detailed causes, conditional on one high-level
/// cause. Weights need not be normalized.
using DetailMix = std::vector<std::pair<trace::DetailCause, double>>;

struct HardwareProfile {
  char hw_type = '?';

  /// Probability of each high-level root cause, indexed in the order of
  /// trace::kAllRootCauses (hardware, software, network, environment,
  /// human, unknown). Sums to 1.
  std::array<double, 6> cause_mix{};

  /// Detailed-cause mixtures per high-level cause (same index order).
  std::array<DetailMix, 6> detail_mix{};

  /// Repair moments per high-level cause (same index order).
  std::array<RepairMoments, 6> repair{};
};

/// Index of a cause in the profile arrays (= trace::cause_index).
using trace::cause_index;

/// The profile for hardware type 'A'..'H'. Throws InvalidArgument for an
/// unknown type. Returned reference is to an immutable singleton.
const HardwareProfile& profile_for(char hw_type);

/// One categorical draw of a high-level cause from `mix` (kAllRootCauses
/// order). The weights are summed left to right and one uniform is
/// consumed, so every generator draws the same cause from one stream.
trace::RootCause sample_cause(Rng& rng, const std::array<double, 6>& mix);

/// One draw of a detailed cause from a non-empty `mix`, the same way.
trace::DetailCause sample_detail(Rng& rng, const DetailMix& mix);

}  // namespace hpcfail::synth
