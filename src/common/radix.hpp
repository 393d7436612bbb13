// The library's one integer sort: a stable LSD radix sort over 64-bit
// keys.
//
// Four callers pack what they sort into an order-preserving 64-bit key:
// trace::merge_sorted packs (start, system, node) next to a (part, row)
// reference, stats::sort_in_place / sorted_copy map each double to its
// order key, the survival estimators put a time's bits above an
// event-first flag, and trace::DatasetIndex sorts row numbers by system
// and by node id. One OR over the keys finds the digits that vary; the
// sort counts only their histograms, in one read of the keys, and runs
// only their passes. So a key that uses 45 of its 64 bits, a sample of
// whole seconds whose low mantissa bits are all zero, or a system id,
// pays only for the digits that vary. Digits are 12 bits wide at every
// size (radix.cpp has the timings behind that width).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hpcfail {

/// Below this many values a comparison sort is faster. On one thread,
/// over subsamples of the 11 largest samples a batch_pipeline pass
/// sorts, std::sort took 23 us for 1536 doubles, 48 us for 2048 and
/// 175 us for 4096; keying and radix-sorting them took 33, 43 and 70 us.
inline constexpr std::size_t kRadixSortMinSize = 2048;

/// Sorts `keys` ascending. Requires keys.size() < 2^32.
void radix_sort(std::vector<std::uint64_t>& keys);

/// Stably permutes `values` into the ascending order of their keys:
/// values[i] travels with keys[i], and equal keys keep their input order.
/// `keys` is scratch and is left in an unspecified order. Requires equal
/// sizes below 2^32.
void radix_sort(std::vector<std::uint64_t>& keys,
                std::vector<std::uint32_t>& values);

}  // namespace hpcfail
