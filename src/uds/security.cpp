#include "uds/security.hpp"

#include <algorithm>
#include <bit>

namespace acf::uds {

Key XorRotateAlgorithm::compute_key(const Seed& seed) const {
  std::uint32_t value = 0;
  for (std::uint8_t byte : seed) value = (value << 8) | byte;
  value ^= secret_;
  value = std::rotl(value, 7);
  value = value * 0x01000193u + 0x811C9DC5u;  // FNV-style mix
  Key key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[key.size() - 1 - i] = static_cast<std::uint8_t>(value & 0xFF);
    value >>= 8;
  }
  return key;
}

bool verify_key(const XorRotateAlgorithm& algorithm, const Seed& seed,
                std::span<const std::uint8_t> candidate) {
  const Key expected = algorithm.compute_key(seed);
  return candidate.size() == expected.size() &&
         std::equal(expected.begin(), expected.end(), candidate.begin());
}

}  // namespace acf::uds
