// Deterministic pseudo-random number generation.
//
// Fuzz campaigns must be reproducible: a finding is only useful if the exact
// frame stream that triggered it can be regenerated from a seed (the paper
// resets the target and repeats runs; we additionally replay them).  All
// randomness in the library flows through Rng so that a single 64-bit seed
// fully determines a campaign.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace acf::util {

/// SplitMix64: used to expand a single 64-bit seed into the xoshiro state.
/// Passes BigCrush when used directly; here it is only the seed expander.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna).  Fast, high quality, tiny state;
/// deterministic across platforms (unlike std::mt19937 distributions).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the generator; the same seed always yields the same stream.
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) noexcept;

  /// Raw 64 random bits.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  /// bound == 0 is a contract violation; returns 0.
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    if (bound == 0) return 0;
    // Lemire's nearly-divisionless unbiased bounded generation.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform in the inclusive range [lo, hi].  Requires lo <= hi.
  std::uint64_t next_in(std::uint64_t lo, std::uint64_t hi) noexcept {
    if (lo >= hi) return lo;
    const std::uint64_t span = hi - lo + 1;
    if (span == 0) return next_u64();  // full 64-bit range
    return lo + next_below(span);
  }

  /// Uniform byte.
  std::uint8_t next_byte() noexcept { return static_cast<std::uint8_t>(next_u64() >> 56); }

  /// Uniform double in [0, 1).
  double next_double() noexcept;

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool next_bool(double p = 0.5) noexcept;

  /// Fills a span with uniform random bytes.
  void fill(std::span<std::uint8_t> out) noexcept;

  /// Uniformly chosen element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) noexcept {
    return items[static_cast<std::size_t>(next_below(items.size()))];
  }
  template <typename T>
  const T& pick(const std::vector<T>& items) noexcept {
    return items[static_cast<std::size_t>(next_below(items.size()))];
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// UniformRandomBitGenerator interface for <algorithm> interop.
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }
  result_type operator()() noexcept { return next_u64(); }

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace acf::util
