// Failure-record vocabulary, mirroring the public LANL release.
//
// Root causes fall into the six high-level categories of Section 2.3
// (human, environment, network, software, hardware, unknown). The release
// also carries detailed root-cause strings (99 distinct hardware categories
// alone); we model the detailed level with the specific causes the paper
// discusses plus catch-alls, which is the granularity every analysis needs.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace hpcfail::trace {

/// High-level root-cause categories (Section 2.3). The explicit one-byte
/// underlying type keeps the columnar trace layout (trace/columns.hpp) at
/// one byte per categorical column instead of four.
enum class RootCause : std::uint8_t {
  hardware,
  software,
  network,
  environment,
  human,
  unknown,
};

inline constexpr std::array<RootCause, 6> kAllRootCauses = {
    RootCause::hardware, RootCause::software,    RootCause::network,
    RootCause::environment, RootCause::human,    RootCause::unknown,
};

/// Detailed root causes the paper's Section 4 discusses explicitly.
enum class DetailCause : std::uint8_t {
  // hardware
  memory_dimm,        ///< the most common low-level cause in every system
  cpu,                ///< dominant in type E (design flaw, >50% of failures)
  node_interconnect,
  power_supply,
  disk,
  other_hardware,
  // software
  operating_system,   ///< top software cause for system E
  parallel_fs,        ///< top software cause for system F
  scheduler,          ///< top software cause for system H
  other_software,     ///< unspecified software (common for D and G)
  // network
  network_switch,
  nic,
  // environment (the release has exactly two)
  power_outage,
  ac_failure,
  // human
  operator_error,
  // unknown
  undetermined,
};

/// Workload running on the failed node (Section 2.3).
enum class Workload : std::uint8_t {
  compute,
  graphics,
  frontend,
};

/// The high-level category a detailed cause belongs to.
RootCause category_of(DetailCause detail) noexcept;

/// Stable index of a cause in kAllRootCauses order (hardware=0 ...
/// unknown=5); used wherever per-cause arrays appear.
std::size_t cause_index(RootCause cause) noexcept;

/// The one copy of each enum's names, indexed by its value (RootCause's
/// table is in kAllRootCauses order). to_string, the *_from_string
/// lookups and the native trace format all read these.
inline constexpr std::array<std::string_view, 6> kRootCauseNames = {
    "hardware", "software", "network", "environment", "human", "unknown"};
inline constexpr std::array<std::string_view, 16> kDetailCauseNames = {
    "memory_dimm",  "cpu",            "node_interconnect", "power_supply",
    "disk",         "other_hardware", "operating_system",  "parallel_fs",
    "scheduler",    "other_software", "network_switch",    "nic",
    "power_outage", "ac_failure",     "operator_error",    "undetermined"};
/// The LANL release spells front-end "fe".
inline constexpr std::array<std::string_view, 3> kWorkloadNames = {
    "compute", "graphics", "fe"};

/// The value's entry in its name table. Throws InvalidArgument for a value
/// outside the enum.
std::string_view name_of(RootCause cause);
std::string_view name_of(DetailCause detail);
std::string_view name_of(Workload workload);

/// name_of as a string.
std::string to_string(RootCause cause);
std::string to_string(DetailCause detail);
std::string to_string(Workload workload);

/// Inverse of to_string: ASCII case-insensitive, surrounding whitespace
/// ignored; workload also takes "frontend" and "front-end". Throws
/// ParseError on unknown spellings.
RootCause root_cause_from_string(std::string_view text);
DetailCause detail_cause_from_string(std::string_view text);
Workload workload_from_string(std::string_view text);

}  // namespace hpcfail::trace
