#include "trace/merge.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "common/radix.hpp"

namespace hpcfail::trace {
namespace {

unsigned bits_for(std::uint64_t v) noexcept {
  return static_cast<unsigned>(std::bit_width(v));
}

/// Layout of the packed (start, system, node) merge key. The key orders
/// exactly like the dataset's record comparator, so a stable integer
/// sort of the keys is the global merge; equal keys stay in input order.
struct MergeKeySpec {
  Seconds base = 0;
  unsigned start_bits = 0;
  unsigned sys_bits = 0;
  unsigned node_bits = 0;
  bool packable = false;

  unsigned total_bits() const noexcept {
    return start_bits + sys_bits + node_bits;
  }

  // Start offsets are unsigned: two int64 starts can lie further apart
  // than Seconds holds.
  std::uint64_t pack(Seconds start, int system, int node) const noexcept {
    return ((static_cast<std::uint64_t>(start) -
             static_cast<std::uint64_t>(base))
            << (sys_bits + node_bits)) |
           (static_cast<std::uint64_t>(system) << node_bits) |
           static_cast<std::uint64_t>(node);
  }
};

/// Sizes the key from the parts' start/system/node ranges; not packable
/// when an id is negative or the key needs more than 64 bits. Requires
/// at least one row.
MergeKeySpec merge_key_spec_for(
    const std::vector<const ColumnStore*>& parts) noexcept {
  Seconds lo = std::numeric_limits<Seconds>::max();
  Seconds hi = std::numeric_limits<Seconds>::min();
  int min_id = 0;
  int max_sys = 0;
  int max_node = 0;
  for (const ColumnStore* part : parts) {
    const ColumnStore& c = *part;
    for (std::size_t i = 0; i < c.size(); ++i) {
      lo = std::min(lo, c.start[i]);
      hi = std::max(hi, c.start[i]);
      min_id = std::min({min_id, c.system_id[i], c.node_id[i]});
      max_sys = std::max(max_sys, c.system_id[i]);
      max_node = std::max(max_node, c.node_id[i]);
    }
  }
  MergeKeySpec spec;
  if (min_id < 0) return spec;
  spec.base = lo;
  spec.start_bits = bits_for(static_cast<std::uint64_t>(hi) -
                             static_cast<std::uint64_t>(lo));
  spec.sys_bits = bits_for(static_cast<std::uint64_t>(max_sys));
  spec.node_bits = bits_for(static_cast<std::uint64_t>(max_node));
  spec.packable = spec.total_bits() <= 64;
  return spec;
}

ColumnStore merge_sorted_by_comparison(
    const std::vector<const ColumnStore*>& parts, std::size_t total) {
  struct Ref {
    Seconds start;
    int system;
    int node;
    std::uint32_t part;
    std::size_t pos;
  };
  std::vector<Ref> refs;
  refs.reserve(total);
  for (std::uint32_t p = 0; p < parts.size(); ++p) {
    const ColumnStore& c = *parts[p];
    for (std::size_t i = 0; i < c.size(); ++i) {
      refs.push_back({c.start[i], c.system_id[i], c.node_id[i], p, i});
    }
  }
  std::stable_sort(refs.begin(), refs.end(),
                   [](const Ref& a, const Ref& b) noexcept {
                     if (a.start != b.start) return a.start < b.start;
                     if (a.system != b.system) return a.system < b.system;
                     return a.node < b.node;
                   });

  ColumnStore out;
  out.resize(total);
  for (std::size_t i = 0; i < total; ++i) {
    out.set_row(i, parts[refs[i].part]->row(refs[i].pos));
  }
  return out;
}

// The (part << pos_bits | row) reference of every row, in merged order:
// the library's stable radix sort (common/radix.hpp) of the packed keys.
// Stability leaves equal keys in (part, row) order, so the result is
// deterministic and independent of how the rows were partitioned across
// parts. The keys are freed on return, before the gather.
std::vector<std::uint32_t> sorted_refs(
    const std::vector<const ColumnStore*>& parts, const MergeKeySpec& spec,
    unsigned pos_bits, std::size_t total) {
  std::vector<std::uint64_t> key(total);
  std::vector<std::uint32_t> ref(total);
  std::size_t at = 0;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const ColumnStore& c = *parts[p];
    const auto tag = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(p) << pos_bits);
    for (std::size_t i = 0; i < c.size(); ++i, ++at) {
      key[at] = spec.pack(c.start[i], c.system_id[i], c.node_id[i]);
      ref[at] = tag | static_cast<std::uint32_t>(i);
    }
  }
  radix_sort(key, ref);
  return ref;
}

}  // namespace

ColumnStore merge_sorted(const std::vector<const ColumnStore*>& parts) {
  std::size_t total = 0;
  std::size_t max_rows = 0;
  for (const ColumnStore* c : parts) {
    total += c->size();
    max_rows = std::max(max_rows, c->size());
  }
  if (total == 0) return ColumnStore{};

  const unsigned pos_bits =
      max_rows > 1 ? bits_for(static_cast<std::uint64_t>(max_rows - 1)) : 0;
  const unsigned part_bits =
      parts.size() > 1 ? bits_for(parts.size() - 1) : 0;
  if (pos_bits + part_bits > 32 ||
      total >= std::numeric_limits<std::uint32_t>::max()) {
    return merge_sorted_by_comparison(parts, total);
  }
  const MergeKeySpec spec = merge_key_spec_for(parts);
  if (!spec.packable) return merge_sorted_by_comparison(parts, total);
  const std::vector<std::uint32_t> ref =
      sorted_refs(parts, spec, pos_bits, total);

  // Gather the rows in sorted order, one column at a time: the
  // destination stays a pure forward stream and the source working set
  // is a single column's per-part streams, which fit in cache.
  ColumnStore out;
  out.resize(total);
  const auto pos_mask =
      static_cast<std::uint32_t>((std::uint64_t{1} << pos_bits) - 1);
  ColumnStore::for_each_column([&](auto column, auto) {
    using Column = std::remove_reference_t<decltype(out.*column)>;
    std::vector<const typename Column::value_type*> srcs(parts.size());
    for (std::size_t p = 0; p < parts.size(); ++p) {
      srcs[p] = (parts[p]->*column).data();
    }
    auto* const dst = (out.*column).data();
    const std::uint32_t* rp = ref.data();
    for (std::size_t i = 0; i < total; ++i) {
      const std::uint32_t r = rp[i];
      dst[i] = srcs[static_cast<std::size_t>(
          static_cast<std::uint64_t>(r) >> pos_bits)][r & pos_mask];
    }
  });
  return out;
}

}  // namespace hpcfail::trace
