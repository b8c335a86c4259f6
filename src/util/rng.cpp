#include "util/rng.hpp"

#include <bit>

namespace acf::util {

Rng::Rng(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
  // All-zero state would lock xoshiro at zero forever; SplitMix64 cannot
  // produce four zero outputs in a row, but guard against hand-rolled state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() noexcept {
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

std::uint64_t Rng::next_below(std::uint64_t bound) noexcept {
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

std::uint64_t Rng::next_in(std::uint64_t lo, std::uint64_t hi) noexcept {
  if (lo >= hi) return lo;
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next_u64();  // full 64-bit range
  return lo + next_below(span);
}

double Rng::next_double() noexcept {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

bool Rng::next_bool(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

void Rng::fill(std::span<std::uint8_t> out) noexcept {
  std::size_t i = 0;
  while (i + 8 <= out.size()) {
    std::uint64_t word = next_u64();
    for (int b = 0; b < 8; ++b) {
      out[i++] = static_cast<std::uint8_t>(word & 0xff);
      word >>= 8;
    }
  }
  if (i < out.size()) {
    std::uint64_t word = next_u64();
    while (i < out.size()) {
      out[i++] = static_cast<std::uint8_t>(word & 0xff);
      word >>= 8;
    }
  }
}

}  // namespace acf::util
