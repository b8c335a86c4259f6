// Seed corpus for feedback-driven campaigns.
//
// A seed is a short frame *sequence* (the unit the feedback loop replays
// and mutates — single frames cannot express stateful attacks like
// lock-then-unlock), together with the full sorted-unique feature list its
// discovery execution produced.  The corpus supports the three operations
// the loop needs:
//
//  * energy-based scheduling — pick() draws seeds weighted by an energy
//    score, so seeds that touched ECU state or an oracle (the domains
//    closest to a security finding) are mutated far more often than seeds
//    that merely produced new traffic cells.  One RNG draw and a binary
//    search over cumulative energies: O(log n) for n seeds;
//  * minimisation — a greedy set cover over the feature lists drops seeds
//    whose entire coverage is subsumed by others, bounding corpus growth.
//    Lazy greedy over dense feature indices keeps exactly the seeds eager
//    greedy keeps, in O(F log F + (F + n) log n + R) for n seeds, F feature
//    entries and R entries rescanned to recompute popped gains (DESIGN.md
//    §16);
//  * a versioned on-disk format — magic + version, every count bounded and
//    validated BEFORE allocation, strict full consumption, canonical
//    encoding so decode∘encode is the identity on everything accepted
//    (the same hardened byte-reader discipline as the fleet wire protocol,
//    DESIGN.md §13; the `corpus_file` self-fuzz target hammers it).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "can/frame.hpp"
#include "feedback/novelty.hpp"
#include "util/rng.hpp"

namespace acf::feedback {

/// Bounds enforced by the decoder before any allocation.
inline constexpr std::size_t kMaxCorpusSeeds = 4096;
inline constexpr std::size_t kMaxSeedFrames = 512;
inline constexpr std::size_t kMaxSeedFeatures = 8192;
inline constexpr std::uint32_t kCorpusMagic = 0x41434643;  // "ACFC"
inline constexpr std::uint32_t kCorpusVersion = 1;

struct Seed {
  std::vector<can::CanFrame> frames;
  /// Full sorted-unique feature list of the execution that earned this seed
  /// its place (minimisation runs set cover over these).
  std::vector<Feature> features;
  /// True when the discovery execution touched the ECU-state or oracle
  /// domains — the seeds worth most of the mutation budget.
  bool hot = false;
  /// Execution index (within its campaign) at which the seed was found.
  std::uint64_t found_at_exec = 0;
  /// Simulated cost of one replay, for budget accounting.
  std::uint64_t exec_cost_ns = 0;
};

class Corpus {
 public:
  std::size_t size() const noexcept { return seeds_.size(); }
  bool empty() const noexcept { return seeds_.empty(); }
  const Seed& at(std::size_t i) const { return seeds_.at(i); }
  const std::vector<Seed>& seeds() const noexcept { return seeds_; }

  /// Appends a seed (features are sorted + deduped in place).  Returns
  /// false (seed dropped) once the corpus is at kMaxCorpusSeeds.
  bool add(Seed seed);

  /// Energy of seed `i`: hot seeds get a large multiplier, everything else
  /// baseline.  Integer weights keep the weighted draw exactly
  /// reproducible.
  std::uint64_t energy(std::size_t i) const;

  /// Energy-weighted seed index draw: one `next_below(total energy)` roll,
  /// landing in the seed whose slice of the running energy total holds it.
  /// Corpus must be non-empty.
  std::size_t pick(util::Rng& rng) const;

  /// Greedy set cover over the feature lists: keeps seeds in order of
  /// (uncovered features contributed, then insertion order) until the full
  /// feature union is covered, drops the rest.  Returns seeds dropped.
  /// The union of covered features is invariant under minimisation.
  std::size_t minimize();

  /// Union size of all feature lists (diagnostic).
  std::size_t distinct_features() const;

  // --- on-disk format -----------------------------------------------------
  std::vector<std::uint8_t> encode() const;
  static std::optional<Corpus> decode(std::span<const std::uint8_t> bytes);
  bool save(const std::string& path) const;
  static std::optional<Corpus> load(const std::string& path);

 private:
  /// Recomputes cumulative_energy_ from seeds_.
  void rebuild_cumulative_energy();

  std::vector<Seed> seeds_;
  /// cumulative_energy_[i] = energy(0) + ... + energy(i); add() extends it,
  /// minimize() and decode() rebuild it.
  std::vector<std::uint64_t> cumulative_energy_;
};

}  // namespace acf::feedback
