// Deterministic pseudo-random number generation.
//
// The synthetic trace must regenerate bit-identically across runs and
// platforms, so we hand-roll xoshiro256++ (seeded through splitmix64)
// instead of relying on implementation-defined std:: distributions.
// Rng satisfies UniformRandomBitGenerator, but the library's continuous
// samplers live in hpcfail::dist and draw only through next_u64() and
// uniform(); dist::standard_normal is their one normal draw. Categorical
// draws (synth's cause mixes) and the test kit read uniforms directly.
#pragma once

#include <cstdint>
#include <limits>

namespace hpcfail {

/// splitmix64 step; used for seed expansion and cheap hashing of stream ids.
std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// Mixes several integers into one well-distributed 64-bit seed. Used to
/// derive independent per-(system, node) generator streams from one
/// scenario seed.
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b = 0x9e3779b97f4a7c15ULL,
                       std::uint64_t c = 0xbf58476d1ce4e5b9ULL) noexcept;

/// xoshiro256++ generator. Copyable value type; 256-bit state.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words via splitmix64 so any 64-bit seed works.
  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  // The draw methods are defined inline: the trace generator and the
  // samplers call them several times per record, and an out-of-line call
  // per draw is measurable against the few ALU ops each one costs.

  /// Next 64 uniformly random bits.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  result_type operator()() noexcept { return next_u64(); }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1]; safe as input to -log(u).
  double uniform_pos() noexcept {
    return 1.0 - uniform();  // in (0, 1]
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Requires n > 0. Unbiased (bitmask
  /// rejection).
  std::uint64_t uniform_index(std::uint64_t n) noexcept {
    // Bitmask rejection: unbiased and portable (no 128-bit multiply).
    if (n == 0) return 0;
    std::uint64_t mask = n - 1;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    for (;;) {
      const std::uint64_t candidate = next_u64() & mask;
      if (candidate < n) return candidate;
    }
  }

  /// True with probability p (clamped to [0, 1]).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform() < p;
  }

  /// Forks an independent generator stream; deterministic given this
  /// generator's state and the stream id.
  Rng fork(std::uint64_t stream) const noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace hpcfail
