// NoveltyMap: the coverage signal that closes the fuzzing loop.
//
// The paper's §III-B4 challenge is that CPS fuzzing has no instrumentation
// to guide it — the target is a black box and "the final count of bugs
// found ... can only be relative to other runs".  The simulator changes
// that: every trial world exposes behavioural state a real bench hides
// (ECU counters, oracle verdicts, bus error excursions, the traffic the
// tap records).  This module turns those observations into an AFL-style
// coverage signal: each observation becomes a 64-bit *feature* hashing
// (domain, key, bucketed count), and the map remembers which feature cells
// have ever been hit.  An input is novel exactly when it hits a cell no
// earlier input hit — the "keep if it reached somewhere new" test of
// coverage-guided fuzzing, built from simulation behaviour instead of
// branch instrumentation.
//
// Hit counts are bucketed into AFL's power-of-two classes before hashing,
// so "rejected 1 command" and "rejected 9 commands" are different cells
// (a gradient the mutator can climb) while "9" and "10" are not (no
// unbounded cell growth).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace acf::feedback {

/// Where a feature was observed.  Part of the feature hash, so the same
/// numeric key in two domains never collides by construction (only by hash).
enum class Domain : std::uint8_t {
  kFrameCell = 1,  // (id, dlc) traffic cell seen by the capture tap
  kEcuState = 2,   // simulator-internal ECU counters (unlocks, rejections)
  kOracle = 3,     // oracle verdicts and ack observations
  kBusError = 4,   // bus error-state excursions (error frames, drops)
  kIdsAlert = 5,   // IDS alert novelty (worlds that mount a detector)
};

using Feature = std::uint64_t;

/// AFL hit-count classes: 1,2,3,4-7,8-15,16-31,32-127,128+ -> 0..7.
/// count == 0 maps to bucket 0 too; callers skip zero counts.
std::uint8_t count_bucket(std::uint64_t count) noexcept;

/// FNV-1a over (domain, key, count_bucket(count)).  Deterministic across
/// platforms; the bucket is embedded in the hash so the map itself stays a
/// plain bitmap.
Feature make_feature(Domain domain, std::uint64_t key, std::uint64_t count) noexcept;

/// Fixed-size hit bitmap over hashed feature cells.  A cell, once hit,
/// stays hit for the campaign's lifetime; novelty is "first hit".
class NoveltyMap {
 public:
  static constexpr std::size_t kDefaultCells = std::size_t{1} << 16;

  /// `cells` is rounded up to a power of two (minimum 64).
  explicit NoveltyMap(std::size_t cells = kDefaultCells);

  /// Marks the feature's cell; returns true if the cell was previously
  /// unhit (the input just reached somewhere new).
  bool observe(Feature feature) noexcept;

  /// Observes every feature; returns how many hit fresh cells.
  std::size_t observe_all(std::span<const Feature> features) noexcept;

  /// True if the feature's cell is already hit (no state change).
  bool seen(Feature feature) const noexcept;

  std::size_t cells() const noexcept { return words_.size() * 64; }
  std::size_t occupied() const noexcept { return occupied_; }

  void reset() noexcept;

 private:
  std::size_t cell_of(Feature feature) const noexcept;

  std::vector<std::uint64_t> words_;
  std::size_t mask_ = 0;  // cells - 1 (cells is a power of two)
  std::size_t occupied_ = 0;
};

}  // namespace acf::feedback
