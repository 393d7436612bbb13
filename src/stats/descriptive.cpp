#include "stats/descriptive.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/error.hpp"
#include "common/radix.hpp"

namespace hpcfail::stats {

double mean(std::span<const double> xs) {
  HPCFAIL_EXPECTS(!xs.empty(), "mean of empty sample");
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  HPCFAIL_EXPECTS(!xs.empty(), "variance of empty sample");
  if (xs.size() == 1) return 0.0;
  const double m = mean(xs);
  double ss = 0.0;
  for (const double x : xs) {
    const double d = x - m;
    ss += d * d;
  }
  return ss / static_cast<double>(xs.size() - 1);
}

double cv_squared(std::span<const double> xs) {
  const double m = mean(xs);
  if (m == 0.0) return std::numeric_limits<double>::quiet_NaN();
  return variance(xs) / (m * m);
}

double quantile_sorted(std::span<const double> sorted, double p) {
  HPCFAIL_EXPECTS(!sorted.empty(), "quantile of empty sample");
  HPCFAIL_EXPECTS(p >= 0.0 && p <= 1.0, "quantile p must be in [0,1]");
  if (sorted.size() == 1) return sorted.front();
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

double median(std::span<const double> xs) {
  auto sorted = sorted_copy(xs);
  return quantile_sorted(sorted, 0.5);
}

Summary summarize(std::span<const double> xs) {
  return summarize(xs, sorted_copy(xs));
}

Summary summarize(std::span<const double> xs,
                  std::span<const double> sorted) {
  HPCFAIL_EXPECTS(!xs.empty(), "summarize of empty sample");
  HPCFAIL_EXPECTS(sorted.size() == xs.size(),
                  "summarize: sorted copy differs in size from the sample");
  HPCFAIL_EXPECTS(std::is_sorted(sorted.begin(), sorted.end()),
                  "summarize: sorted copy is not sorted");
  Summary s;
  s.n = xs.size();
  // Fused moments: one sum pass, then one squared-deviation pass reusing
  // the mean (the standalone variance() recomputes it — same value, same
  // accumulation order, so the results are bit-identical).
  s.mean = mean(xs);
  if (xs.size() == 1) {
    s.variance = 0.0;
  } else {
    double ss = 0.0;
    for (const double x : xs) {
      const double d = x - s.mean;
      ss += d * d;
    }
    s.variance = ss / static_cast<double>(xs.size() - 1);
  }
  s.stddev = std::sqrt(s.variance);
  s.cv2 = (s.mean != 0.0) ? s.variance / (s.mean * s.mean)
                          : std::numeric_limits<double>::quiet_NaN();
  s.median = quantile_sorted(sorted, 0.5);
  s.q25 = quantile_sorted(sorted, 0.25);
  s.q75 = quantile_sorted(sorted, 0.75);
  s.min = sorted.front();
  s.max = sorted.back();
  if (s.n >= 3 && s.stddev > 0.0) {
    double cubed = 0.0;
    for (const double x : xs) {
      const double z = (x - s.mean) / s.stddev;
      cubed += z * z * z;
    }
    const auto n = static_cast<double>(s.n);
    s.skewness = cubed * n / ((n - 1.0) * (n - 2.0));
  }
  return s;
}

void sort_in_place(std::span<double> xs) {
  constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;
  const std::size_t n = xs.size();
  if (n >= kRadixSortMinSize &&
      n < std::numeric_limits<std::uint32_t>::max()) {
    // The key flips the sign bit of a non-negative value and every bit of
    // a negative one, so keys order as the values do. NaN has no place in
    // that order and -0.0 ties +0.0 under <, so std::sort's arrangement
    // of either is its own: a sample holding one is left to it.
    std::vector<std::uint64_t> keys(n);
    bool keyed = true;
    for (std::size_t i = 0; i < n; ++i) {
      const auto bits = std::bit_cast<std::uint64_t>(xs[i]);
      keyed = keyed && !std::isnan(xs[i]) && bits != kSignBit;
      keys[i] = (bits & kSignBit) != 0 ? ~bits : bits | kSignBit;
    }
    if (keyed) {
      radix_sort(keys);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t k = keys[i];
        xs[i] = std::bit_cast<double>((k & kSignBit) != 0 ? k & ~kSignBit
                                                          : ~k);
      }
      return;
    }
  }
  std::sort(xs.begin(), xs.end());
}

std::vector<double> sorted_copy(std::span<const double> xs) {
  std::vector<double> out(xs.begin(), xs.end());
  sort_in_place(out);
  return out;
}

}  // namespace hpcfail::stats
