#include "synth/profile.hpp"

#include <map>

#include "common/error.hpp"

namespace hpcfail::synth {

using trace::DetailCause;
using trace::RootCause;

namespace {

// Table 2's repair moments (minutes), per high-level cause, in the
// cause_index order. These are the site-wide anchors; per-type scaling
// below reproduces Fig 7(b)/(c)'s "repair time depends on hardware type".
constexpr RepairMoments kBaseRepair[6] = {
    {342.0, 64.0},   // hardware
    {369.0, 33.0},   // software
    {247.0, 70.0},   // network
    {572.0, 269.0},  // environment
    {163.0, 44.0},   // human
    {398.0, 32.0},   // unknown (overridden per type below)
};

DetailMix default_hardware_detail() {
  return {{DetailCause::memory_dimm, 0.35}, {DetailCause::cpu, 0.15},
          {DetailCause::node_interconnect, 0.15},
          {DetailCause::power_supply, 0.10}, {DetailCause::disk, 0.15},
          {DetailCause::other_hardware, 0.10}};
}

DetailMix default_software_detail() {
  return {{DetailCause::operating_system, 0.35},
          {DetailCause::parallel_fs, 0.15},
          {DetailCause::scheduler, 0.15},
          {DetailCause::other_software, 0.35}};
}

HardwareProfile make_profile(char type) {
  HardwareProfile p;
  p.hw_type = type;

  // High-level mixtures (Fig 1a): hardware is the largest everywhere
  // (30-60%), software second (5-24%); type D has hardware and software
  // nearly equal; type E has <5% unknown while most others have 20-30%.
  switch (type) {
    case 'A':
    case 'B':
    case 'C':
      p.cause_mix = {0.50, 0.20, 0.05, 0.05, 0.05, 0.15};
      break;
    case 'D':
      p.cause_mix = {0.37, 0.27, 0.06, 0.04, 0.02, 0.24};
      break;
    case 'E':
      p.cause_mix = {0.62, 0.18, 0.06, 0.05, 0.05, 0.04};
      break;
    case 'F':
      p.cause_mix = {0.58, 0.15, 0.03, 0.02, 0.02, 0.20};
      break;
    case 'G':
      p.cause_mix = {0.59, 0.10, 0.03, 0.02, 0.02, 0.24};
      break;
    case 'H':
      p.cause_mix = {0.45, 0.20, 0.05, 0.05, 0.02, 0.23};
      break;
    default:
      throw InvalidArgument(std::string("unknown hardware type '") + type +
                            "'");
  }

  // Detailed hardware causes (Section 4): memory is the most common
  // low-level cause everywhere except type E, whose CPU design flaw makes
  // CPU >50% of *all* type-E failures; types F and H see >25% of all
  // failures from memory.
  switch (type) {
    case 'E':
      p.detail_mix[0] = {{DetailCause::cpu, 0.82},
                         {DetailCause::memory_dimm, 0.17},
                         {DetailCause::other_hardware, 0.01}};
      break;
    case 'F':
      p.detail_mix[0] = {{DetailCause::memory_dimm, 0.45},
                         {DetailCause::cpu, 0.15},
                         {DetailCause::node_interconnect, 0.12},
                         {DetailCause::power_supply, 0.08},
                         {DetailCause::disk, 0.12},
                         {DetailCause::other_hardware, 0.08}};
      break;
    case 'H':
      p.detail_mix[0] = {{DetailCause::memory_dimm, 0.60},
                         {DetailCause::cpu, 0.10},
                         {DetailCause::node_interconnect, 0.10},
                         {DetailCause::power_supply, 0.05},
                         {DetailCause::disk, 0.10},
                         {DetailCause::other_hardware, 0.05}};
      break;
    case 'G':
      p.detail_mix[0] = {{DetailCause::memory_dimm, 0.30},
                         {DetailCause::cpu, 0.15},
                         {DetailCause::node_interconnect, 0.20},
                         {DetailCause::power_supply, 0.10},
                         {DetailCause::disk, 0.15},
                         {DetailCause::other_hardware, 0.10}};
      break;
    default:
      p.detail_mix[0] = default_hardware_detail();
  }

  // Detailed software causes: OS tops type E, the parallel file system
  // tops type F, the scheduler tops type H; D and G mostly unspecified.
  switch (type) {
    case 'E':
      p.detail_mix[1] = {{DetailCause::operating_system, 0.55},
                         {DetailCause::parallel_fs, 0.15},
                         {DetailCause::scheduler, 0.10},
                         {DetailCause::other_software, 0.20}};
      break;
    case 'F':
      p.detail_mix[1] = {{DetailCause::parallel_fs, 0.50},
                         {DetailCause::operating_system, 0.20},
                         {DetailCause::scheduler, 0.10},
                         {DetailCause::other_software, 0.20}};
      break;
    case 'H':
      p.detail_mix[1] = {{DetailCause::scheduler, 0.50},
                         {DetailCause::operating_system, 0.20},
                         {DetailCause::parallel_fs, 0.10},
                         {DetailCause::other_software, 0.20}};
      break;
    case 'D':
    case 'G':
      p.detail_mix[1] = {{DetailCause::other_software, 0.60},
                         {DetailCause::operating_system, 0.20},
                         {DetailCause::parallel_fs, 0.10},
                         {DetailCause::scheduler, 0.10}};
      break;
    default:
      p.detail_mix[1] = default_software_detail();
  }

  p.detail_mix[2] = {{DetailCause::network_switch, 0.6},
                     {DetailCause::nic, 0.4}};
  p.detail_mix[3] = {{DetailCause::power_outage, 0.7},
                     {DetailCause::ac_failure, 0.3}};
  p.detail_mix[4] = {{DetailCause::operator_error, 1.0}};
  p.detail_mix[5] = {{DetailCause::undetermined, 1.0}};

  // Per-type repair scaling (Fig 7b/c): repair times cluster by hardware
  // type -- the small early systems repaired fastest, the big NUMA
  // machines slowest -- and are insensitive to system size.
  double scale = 1.0;
  switch (type) {
    case 'A':
    case 'B':
    case 'C':
      scale = 0.6;
      break;
    case 'D':
      scale = 1.1;
      break;
    case 'E':
      scale = 0.85;
      break;
    case 'F':
      scale = 1.0;
      break;
    case 'G':
      scale = 1.8;
      break;
    case 'H':
      scale = 1.4;
      break;
    default:
      break;
  }
  for (std::size_t i = 0; i < 5; ++i) {
    p.repair[i] = {kBaseRepair[i].mean_minutes * scale,
                   kBaseRepair[i].median_minutes * scale};
  }
  // Unknown-cause repairs are *not* scaled with the type: most systems
  // resolve undiagnosed failures quickly (Fig 1b: <5% of downtime), but
  // the first-of-their-kind D and G systems accumulated long undiagnosed
  // outages during their painful early years (>5% of downtime).
  if (type == 'D' || type == 'G') {
    p.repair[5] = {250.0, 35.0};
  } else {
    p.repair[5] = {60.0, 15.0};
  }
  return p;
}

}  // namespace

const HardwareProfile& profile_for(char hw_type) {
  static const std::map<char, HardwareProfile> kProfiles = [] {
    std::map<char, HardwareProfile> m;
    for (const char t : {'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H'}) {
      m.emplace(t, make_profile(t));
    }
    return m;
  }();
  const auto it = kProfiles.find(hw_type);
  if (it == kProfiles.end()) {
    throw InvalidArgument(std::string("unknown hardware type '") + hw_type +
                          "'");
  }
  return it->second;
}

RootCause sample_cause(Rng& rng, const std::array<double, 6>& mix) {
  double total = 0.0;
  for (const double w : mix) total += w;
  double r = rng.uniform() * total;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    r -= mix[i];
    if (r <= 0.0) return trace::kAllRootCauses[i];
  }
  return RootCause::unknown;
}

DetailCause sample_detail(Rng& rng, const DetailMix& mix) {
  HPCFAIL_ASSERT(!mix.empty());
  double total = 0.0;
  for (const auto& [detail, w] : mix) total += w;
  double r = rng.uniform() * total;
  for (const auto& [detail, w] : mix) {
    r -= w;
    if (r <= 0.0) return detail;
  }
  return mix.back().first;
}

}  // namespace hpcfail::synth
