// Stable multi-way merge of columnar record batches.
//
// Both the synthetic generator and the streaming-ingest seal path face
// the same problem: K independently produced columnar batches must
// become one store sorted by the dataset comparator (start, system,
// node), and the result must be bit-identical to a single stable sort
// of the concatenated input regardless of how the rows were
// partitioned. merge_sorted() is that primitive. It sizes a packed
// (start, system, node) integer key from the ranges in the data, so the
// key's numeric order equals the comparator order, sorts (part, row)
// references by key with the library's stable radix (common/radix.hpp),
// and gathers each column once in sorted order. Stability keeps equal
// keys in (part, emission) order, so the caller controls tie order
// purely by part order — the seal path passes the already-sorted sealed
// store as part 0 and the arrival-order shard tails after it, and gets
// the "sealed first on ties" contract for free.
// Data whose key range does not pack into 64 bits (a negative id, or
// starts spread too far apart) falls back to a comparison stable_sort
// with identical output.
#pragma once

#include <vector>

#include "trace/columns.hpp"

namespace hpcfail::trace {

/// Stable merge of the parts into one (start, system, node)-sorted
/// store. Equal keys stay in (part, row) order; the output is
/// bit-identical to one stable sort of the concatenation of the parts.
/// The parts are borrowed and left untouched.
ColumnStore merge_sorted(const std::vector<const ColumnStore*>& parts);

}  // namespace hpcfail::trace
