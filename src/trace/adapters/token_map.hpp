// Internal helpers shared by the concrete adapters: bijective token
// vocabularies over the record enums, and the field splitter. Each
// adapter declares one std::array of tokens per axis, ordered like the
// enum (kAllRootCauses order for causes, declaration order for
// DetailCause and Workload), and converts through token_for and
// index_of_token so format/parse stay exact inverses by construction.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace hpcfail::trace::adapters {

/// Token for enum index `index`. The tables are adapter-authored and
/// index is derived from a valid enum, so this never fails.
inline std::string_view token_for(std::span<const std::string_view> table,
                                  std::size_t index) noexcept {
  return table[index];
}

/// Enum index of `token`, or ParseError naming the axis on a miss.
/// Linear scan: the largest table has 16 entries.
inline std::size_t index_of_token(std::span<const std::string_view> table,
                                  std::string_view token,
                                  std::string_view axis) {
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (table[i] == token) return i;
  }
  throw ParseError("unknown " + std::string(axis) + " token '" +
                   std::string(token) + "'");
}

/// Splits `line` at every `sep` into views, keeping empty fields ("a,,b"
/// is three fields), and returns the field count. Fields past N are
/// counted but not stored, so a count != N is the caller's error.
template <std::size_t N>
std::size_t split_fields(std::string_view line, char sep,
                         std::array<std::string_view, N>& fields) noexcept {
  std::size_t count = 0;
  for (std::size_t start = 0;; ++count) {
    const std::size_t end = line.find(sep, start);
    if (count < N) fields[count] = line.substr(start, end - start);
    if (end == std::string_view::npos) return count + 1;
    start = end + 1;
  }
}

}  // namespace hpcfail::trace::adapters
