#include "trace/adapters/adapter.hpp"

#include <limits>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "trace/adapters/lu.hpp"
#include "trace/adapters/mistral.hpp"
#include "trace/adapters/tan.hpp"
#include "trace/types.hpp"

namespace hpcfail::trace {

std::span<const Adapter* const> all_adapters() noexcept {
  static const adapters::LuAdapter lu;
  static const adapters::MistralAdapter mistral;
  static const adapters::TanAdapter tan;
  // Name-ascending so listings and error messages are stable.
  static const Adapter* const kAll[] = {&lu, &mistral, &tan};
  return kAll;
}

std::string adapter_names() {
  std::string joined;
  for (const Adapter* adapter : all_adapters()) {
    if (!joined.empty()) joined += ", ";
    joined += adapter->name();
  }
  return joined;
}

const Adapter& adapter_for(std::string_view name) {
  for (const Adapter* adapter : all_adapters()) {
    if (adapter->name() == name) return *adapter;
  }
  throw ValidationError("unknown trace format '" + std::string(name) +
                        "' (known formats: " + adapter_names() + ")");
}

int parse_id(std::string_view text, std::string_view field) {
  const std::int64_t id = parse_i64(text);
  if (id < std::numeric_limits<int>::min() ||
      id > std::numeric_limits<int>::max()) {
    throw ParseError(std::string(field) + " out of range: '" +
                     std::string(text) + "'");
  }
  return static_cast<int>(id);
}

void validate_adapted(const FailureRecord& record) {
  if (record.system_id < 1 || record.node_id < 0) {
    throw ValidationError("system id must be >= 1 and node id >= 0 (got " +
                          std::to_string(record.system_id) + ", " +
                          std::to_string(record.node_id) + ")");
  }
  if (record.end < record.start) {
    throw ValidationError("repair interval ends before it starts");
  }
  if (category_of(record.detail) != record.cause) {
    throw ValidationError("detail cause '" + to_string(record.detail) +
                          "' does not belong to category '" +
                          to_string(record.cause) + "'");
  }
}

}  // namespace hpcfail::trace
