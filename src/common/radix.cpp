#include "common/radix.hpp"

#include <limits>

#include "common/error.hpp"

namespace hpcfail {
namespace {

// 12-bit digits: a 64-bit key takes at most six passes, and their
// histograms (6 x 4096 counts, 96 KiB) stay in L2. Replaying on one
// thread the keys of every radix sort in a batch_pipeline pass, 12 bits
// took 107 ms a pass, 8 bits 137 ms, 16 bits 131-132 ms, and 8 bits
// below 65,536 keys with 16 above 117-118 ms. 12 bits was the fastest
// width in every size band but the smallest (2048-4095 keys: 3.8-3.9 ms
// a pass, 10 bits 3.4-3.5 ms), and on merge_sorted's 997,357 keys it took
// 21 ms against 16 bits' 23 ms.
constexpr unsigned kDigitBits = 12;
constexpr unsigned kPasses = (64 + kDigitBits - 1) / kDigitBits;
constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
constexpr std::uint64_t kDigitMask = kBuckets - 1;

// With `values`, the keys move only as long as a later pass still reads
// them.
void sort(std::vector<std::uint64_t>& keys,
          std::vector<std::uint32_t>* values) {
  HPCFAIL_EXPECTS(keys.size() < std::numeric_limits<std::uint32_t>::max(),
                  "radix_sort takes fewer than 2^32 keys");
  const std::size_t n = keys.size();
  if (n < 2) return;

  // A digit that is the same in every key leaves the order as it is, and
  // counting it would only add to one bucket n times over.
  std::uint64_t varying = 0;
  for (const std::uint64_t k : keys) varying |= k ^ keys[0];
  unsigned live[kPasses];
  unsigned live_count = 0;
  for (unsigned pass = 0; pass < kPasses; ++pass) {
    if (((varying >> (pass * kDigitBits)) & kDigitMask) != 0) {
      live[live_count++] = pass;
    }
  }
  if (live_count == 0) return;

  // Every live digit's histogram in one read of the keys.
  std::vector<std::uint32_t> hist(live_count * kBuckets, 0);
  for (const std::uint64_t k : keys) {
    for (unsigned l = 0; l < live_count; ++l) {
      ++hist[l * kBuckets + ((k >> (live[l] * kDigitBits)) & kDigitMask)];
    }
  }

  std::vector<std::uint64_t> key_tmp(
      values == nullptr || live_count > 1 ? n : 0);
  std::vector<std::uint32_t> value_tmp(values == nullptr ? 0 : n);
  for (unsigned l = 0; l < live_count; ++l) {
    std::uint32_t* h = hist.data() + l * kBuckets;
    std::uint32_t sum = 0;
    for (std::size_t d = 0; d < kBuckets; ++d) {
      const std::uint32_t count = h[d];
      h[d] = sum;
      sum += count;
    }
    const unsigned shift = live[l] * kDigitBits;
    const std::uint64_t* src = keys.data();
    std::uint64_t* key_dst = key_tmp.data();
    if (values == nullptr) {
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t k = src[i];
        key_dst[h[(k >> shift) & kDigitMask]++] = k;
      }
      keys.swap(key_tmp);
      continue;
    }
    const bool forward_keys = l + 1 < live_count;
    const std::uint32_t* value_src = values->data();
    std::uint32_t* value_dst = value_tmp.data();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = src[i];
      const std::uint32_t at = h[(k >> shift) & kDigitMask]++;
      if (forward_keys) key_dst[at] = k;
      value_dst[at] = value_src[i];
    }
    values->swap(value_tmp);
    if (forward_keys) keys.swap(key_tmp);
  }
}

}  // namespace

void radix_sort(std::vector<std::uint64_t>& keys) { sort(keys, nullptr); }

void radix_sort(std::vector<std::uint64_t>& keys,
                std::vector<std::uint32_t>& values) {
  HPCFAIL_EXPECTS(values.size() == keys.size(),
                  "radix_sort needs one value per key");
  sort(keys, &values);
}

}  // namespace hpcfail
