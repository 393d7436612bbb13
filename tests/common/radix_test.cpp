#include "common/radix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace hpcfail {
namespace {

/// `n` keys drawn from `bits` random low bits over a fixed high pattern,
/// so whole digits are constant and their passes are skipped.
std::vector<std::uint64_t> keys(std::size_t n, unsigned bits,
                                std::uint64_t seed) {
  Rng rng(seed);
  const std::uint64_t low =
      bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  std::vector<std::uint64_t> out(n);
  for (std::uint64_t& k : out) {
    k = (0xa5a5000000000000ull & ~low) | (rng.next_u64() & low);
  }
  return out;
}

TEST(RadixSort, KeysComeOutAsStdSortPutsThem) {
  // Keys that vary in 0 to 6 of the 12-bit digits (0, 5, 12, 13, 17,
  // 40 or all 64 bits), and few-key inputs.
  for (const std::size_t n : {0, 1, 2, 3, 100, 2047, 65535, 70001}) {
    for (const unsigned bits : {0u, 5u, 12u, 13u, 17u, 40u, 64u}) {
      std::vector<std::uint64_t> got = keys(n, bits, n * 131 + bits);
      std::vector<std::uint64_t> want = got;
      std::sort(want.begin(), want.end());
      radix_sort(got);
      EXPECT_EQ(got, want) << n << " keys, " << bits << " bits";
    }
  }
}

TEST(RadixSort, ValuesFollowTheirKeysAndTiesKeepInputOrder) {
  for (const std::size_t n : {5, 3000, 70001}) {
    for (const unsigned bits : {3u, 20u, 64u}) {
      std::vector<std::uint64_t> k = keys(n, bits, n + bits);
      std::vector<std::pair<std::uint64_t, std::uint32_t>> want;
      std::vector<std::uint32_t> values(n);
      for (std::size_t i = 0; i < n; ++i) {
        values[i] = static_cast<std::uint32_t>(i);
        want.emplace_back(k[i], values[i]);
      }
      std::stable_sort(want.begin(), want.end(),
                       [](const auto& a, const auto& b) {
                         return a.first < b.first;
                       });
      radix_sort(k, values);
      ASSERT_EQ(k.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(values[i], want[i].second)
            << n << " keys, " << bits << " bits, at " << i;
      }
    }
  }
}

}  // namespace
}  // namespace hpcfail
