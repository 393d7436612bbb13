#include "trace/types.hpp"

#include "common/error.hpp"
#include "common/strings.hpp"

namespace hpcfail::trace {

RootCause category_of(DetailCause detail) noexcept {
  switch (detail) {
    case DetailCause::memory_dimm:
    case DetailCause::cpu:
    case DetailCause::node_interconnect:
    case DetailCause::power_supply:
    case DetailCause::disk:
    case DetailCause::other_hardware:
      return RootCause::hardware;
    case DetailCause::operating_system:
    case DetailCause::parallel_fs:
    case DetailCause::scheduler:
    case DetailCause::other_software:
      return RootCause::software;
    case DetailCause::network_switch:
    case DetailCause::nic:
      return RootCause::network;
    case DetailCause::power_outage:
    case DetailCause::ac_failure:
      return RootCause::environment;
    case DetailCause::operator_error:
      return RootCause::human;
    case DetailCause::undetermined:
      return RootCause::unknown;
  }
  return RootCause::unknown;
}

std::size_t cause_index(RootCause cause) noexcept {
  switch (cause) {
    case RootCause::hardware: return 0;
    case RootCause::software: return 1;
    case RootCause::network: return 2;
    case RootCause::environment: return 3;
    case RootCause::human: return 4;
    case RootCause::unknown: return 5;
  }
  return 5;
}

namespace {

template <typename Enum, std::size_t N>
std::string_view checked_name(const std::array<std::string_view, N>& names,
                              Enum value, const char* what) {
  const auto i = static_cast<std::size_t>(value);
  if (i >= N) throw InvalidArgument(std::string("invalid ") + what + " value");
  return names[i];
}

/// `a` equals `name`, ASCII letters compared case-insensitively.
bool equals_ignoring_case(std::string_view a, std::string_view name) noexcept {
  if (a.size() != name.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    char c = a[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c != name[i]) return false;
  }
  return true;
}

/// The enum value whose name `text` spells, else ParseError "unknown
/// <what>: '<text>'".
template <typename Enum, std::size_t N>
Enum from_name(const std::array<std::string_view, N>& names,
               std::string_view text, const char* what) {
  const std::string_view t = trim_view(text);
  for (std::size_t i = 0; i < N; ++i) {
    if (equals_ignoring_case(t, names[i])) return static_cast<Enum>(i);
  }
  throw ParseError(std::string("unknown ") + what + ": '" +
                   std::string(text) + "'");
}

}  // namespace

std::string_view name_of(RootCause cause) {
  return checked_name(kRootCauseNames, cause, "RootCause");
}

std::string_view name_of(DetailCause detail) {
  return checked_name(kDetailCauseNames, detail, "DetailCause");
}

std::string_view name_of(Workload workload) {
  return checked_name(kWorkloadNames, workload, "Workload");
}

std::string to_string(RootCause cause) { return std::string(name_of(cause)); }

std::string to_string(DetailCause detail) {
  return std::string(name_of(detail));
}

std::string to_string(Workload workload) {
  return std::string(name_of(workload));
}

RootCause root_cause_from_string(std::string_view text) {
  return from_name<RootCause>(kRootCauseNames, text, "root cause");
}

DetailCause detail_cause_from_string(std::string_view text) {
  return from_name<DetailCause>(kDetailCauseNames, text, "detail cause");
}

Workload workload_from_string(std::string_view text) {
  const std::string_view t = trim_view(text);
  if (equals_ignoring_case(t, "frontend") ||
      equals_ignoring_case(t, "front-end")) {
    return Workload::frontend;
  }
  return from_name<Workload>(kWorkloadNames, text, "workload");
}

}  // namespace hpcfail::trace
