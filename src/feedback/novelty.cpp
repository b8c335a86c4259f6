#include "feedback/novelty.hpp"

#include <bit>

namespace acf::feedback {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

constexpr std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value) noexcept {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFF;
    hash *= kFnvPrime;
  }
  return hash;
}

}  // namespace

std::uint8_t count_bucket(std::uint64_t count) noexcept {
  if (count <= 3) return static_cast<std::uint8_t>(count == 0 ? 0 : count - 1);
  if (count <= 7) return 3;
  if (count <= 15) return 4;
  if (count <= 31) return 5;
  if (count <= 127) return 6;
  return 7;
}

Feature make_feature(Domain domain, std::uint64_t key, std::uint64_t count) noexcept {
  std::uint64_t hash = kFnvOffset;
  hash ^= static_cast<std::uint64_t>(domain);
  hash *= kFnvPrime;
  hash = fnv1a_u64(hash, key);
  hash ^= count_bucket(count);
  hash *= kFnvPrime;
  return hash;
}

NoveltyMap::NoveltyMap(std::size_t cells) {
  if (cells < 64) cells = 64;
  cells = std::bit_ceil(cells);
  words_.assign(cells / 64, 0);
  mask_ = cells - 1;
}

std::size_t NoveltyMap::cell_of(Feature feature) const noexcept {
  // Fold the high bits in so small maps still use the whole hash.
  return static_cast<std::size_t>((feature ^ (feature >> 32)) & mask_);
}

bool NoveltyMap::observe(Feature feature) noexcept {
  const std::size_t cell = cell_of(feature);
  std::uint64_t& word = words_[cell / 64];
  const std::uint64_t bit = std::uint64_t{1} << (cell % 64);
  if ((word & bit) != 0) return false;
  word |= bit;
  ++occupied_;
  return true;
}

std::size_t NoveltyMap::observe_all(std::span<const Feature> features) noexcept {
  std::size_t fresh = 0;
  for (const Feature feature : features) {
    if (observe(feature)) ++fresh;
  }
  return fresh;
}

bool NoveltyMap::seen(Feature feature) const noexcept {
  const std::size_t cell = cell_of(feature);
  return (words_[cell / 64] >> (cell % 64)) & 1;
}

void NoveltyMap::reset() noexcept {
  for (std::uint64_t& word : words_) word = 0;
  occupied_ = 0;
}

}  // namespace acf::feedback
