#include "util/rng.hpp"

namespace acf::util {

Rng::Rng(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
  // All-zero state would lock xoshiro at zero forever; SplitMix64 cannot
  // produce four zero outputs in a row, but guard against hand-rolled state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
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
