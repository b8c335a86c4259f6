#include "feedback/corpus.hpp"

#include <algorithm>
#include <utility>

#include "util/bytes.hpp"
#include "util/file.hpp"

namespace acf::feedback {

using util::ByteReader;
using util::ByteWriter;

namespace {

constexpr std::uint8_t kSeedFlagHot = 0x01;
constexpr std::uint8_t kFrameFlagExtended = 0x01;

// Minimum encoded sizes, used to validate declared counts against the bytes
// actually present BEFORE any allocation (hostile counts fail closed).
constexpr std::size_t kMinSeedBytes = 1 + 8 + 8 + 4 + 4;  // flags + u64s + counts
constexpr std::size_t kMinFrameBytes = 4 + 1 + 1;         // id + flags + len

// Sorted, deduplicated union of every seed's feature list.
std::vector<Feature> feature_union(const std::vector<Seed>& seeds) {
  std::size_t total = 0;
  for (const Seed& seed : seeds) total += seed.features.size();
  std::vector<Feature> all;
  all.reserve(total);
  for (const Seed& seed : seeds) all.insert(all.end(), seed.features.begin(), seed.features.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

}  // namespace

bool Corpus::add(Seed seed) {
  if (seeds_.size() >= kMaxCorpusSeeds) return false;
  std::sort(seed.features.begin(), seed.features.end());
  seed.features.erase(std::unique(seed.features.begin(), seed.features.end()),
                      seed.features.end());
  seeds_.push_back(std::move(seed));
  const std::uint64_t before = cumulative_energy_.empty() ? 0 : cumulative_energy_.back();
  cumulative_energy_.push_back(before + energy(seeds_.size() - 1));
  return true;
}

std::uint64_t Corpus::energy(std::size_t i) const {
  // Hot seeds (ECU state / oracle domain) soak up most of the mutation
  // budget: they are the ones a few byte flips away from a finding.
  return seeds_.at(i).hot ? 32 : 1;
}

void Corpus::rebuild_cumulative_energy() {
  cumulative_energy_.clear();
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < seeds_.size(); ++i) {
    total += energy(i);
    cumulative_energy_.push_back(total);
  }
}

std::size_t Corpus::pick(util::Rng& rng) const {
  // The roll lands in the first seed whose running total exceeds it: the
  // seed a linear scan subtracting energies in order stops at.
  const std::uint64_t roll = rng.next_below(cumulative_energy_.back());
  return static_cast<std::size_t>(
      std::upper_bound(cumulative_energy_.begin(), cumulative_energy_.end(), roll) -
      cumulative_energy_.begin());
}

std::size_t Corpus::minimize() {
  if (seeds_.size() < 2) return 0;
  // Dense feature indices: a feature's rank in the sorted union.  Seed i's
  // indices are ids[offsets[i] .. offsets[i + 1]).
  const std::vector<Feature> universe = feature_union(seeds_);
  std::vector<std::uint32_t> ids;
  std::vector<std::size_t> offsets;
  offsets.reserve(seeds_.size() + 1);
  offsets.push_back(0);
  for (const Seed& seed : seeds_) {
    for (const Feature f : seed.features) {
      ids.push_back(static_cast<std::uint32_t>(
          std::lower_bound(universe.begin(), universe.end(), f) - universe.begin()));
    }
    offsets.push_back(ids.size());
  }

  // Lazy greedy over a max-heap of (gain, -index).  Every stored gain is an
  // upper bound on its seed's true gain, because covering features only
  // lowers gains.  A popped entry whose recomputed gain still equals its
  // stored gain therefore outranks every other seed's true (gain, -index):
  // it is exactly the seed eager greedy takes next, ties going to the
  // earliest seed.  A stale entry goes back with its true gain.
  std::vector<std::pair<std::uint32_t, std::int32_t>> heap;
  heap.reserve(seeds_.size());
  for (std::size_t i = 0; i < seeds_.size(); ++i) {
    const auto gain = static_cast<std::uint32_t>(offsets[i + 1] - offsets[i]);
    if (gain > 0) heap.emplace_back(gain, -static_cast<std::int32_t>(i));
  }
  std::make_heap(heap.begin(), heap.end());

  std::vector<bool> covered(universe.size(), false);
  std::size_t uncovered = universe.size();
  std::vector<bool> kept(seeds_.size(), false);
  while (uncovered > 0 && !heap.empty()) {
    std::pop_heap(heap.begin(), heap.end());
    auto& [stored, negated_index] = heap.back();
    const auto index = static_cast<std::size_t>(-negated_index);
    const auto first = ids.begin() + static_cast<std::ptrdiff_t>(offsets[index]);
    const auto last = ids.begin() + static_cast<std::ptrdiff_t>(offsets[index + 1]);
    const auto gain = static_cast<std::uint32_t>(
        std::count_if(first, last, [&](std::uint32_t id) { return !covered[id]; }));
    if (gain == stored) {
      kept[index] = true;
      for (auto id = first; id != last; ++id) covered[*id] = true;
      uncovered -= gain;  // a seed's features, so its indices, are distinct
      heap.pop_back();
    } else if (gain > 0) {
      stored = gain;
      std::push_heap(heap.begin(), heap.end());
    } else {
      heap.pop_back();  // adds nothing any more
    }
  }

  std::vector<Seed> survivors;
  survivors.reserve(seeds_.size());
  for (std::size_t i = 0; i < seeds_.size(); ++i) {
    if (kept[i]) survivors.push_back(std::move(seeds_[i]));
  }
  const std::size_t dropped = seeds_.size() - survivors.size();
  seeds_ = std::move(survivors);
  rebuild_cumulative_energy();
  return dropped;
}

std::size_t Corpus::distinct_features() const { return feature_union(seeds_).size(); }

std::vector<std::uint8_t> Corpus::encode() const {
  ByteWriter out;
  out.u32(kCorpusMagic);
  out.u32(kCorpusVersion);
  out.u32(static_cast<std::uint32_t>(seeds_.size()));
  for (const Seed& seed : seeds_) {
    out.u8(seed.hot ? kSeedFlagHot : 0);
    out.u64(seed.found_at_exec);
    out.u64(seed.exec_cost_ns);
    out.u32(static_cast<std::uint32_t>(seed.features.size()));
    for (const Feature f : seed.features) out.u64(f);
    out.u32(static_cast<std::uint32_t>(seed.frames.size()));
    for (const can::CanFrame& frame : seed.frames) {
      out.u32(frame.id());
      out.u8(frame.is_extended() ? kFrameFlagExtended : 0);
      out.u8(static_cast<std::uint8_t>(frame.length()));
      for (const std::uint8_t byte : frame.payload()) out.u8(byte);
    }
  }
  return out.take();
}

std::optional<Corpus> Corpus::decode(std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  if (in.u32() != kCorpusMagic || in.u32() != kCorpusVersion || !in.ok()) {
    return std::nullopt;
  }
  const std::uint32_t seed_count = in.count(kMinSeedBytes, kMaxCorpusSeeds);
  if (!in.ok()) return std::nullopt;
  Corpus corpus;
  corpus.seeds_.reserve(seed_count);
  for (std::uint32_t s = 0; s < seed_count; ++s) {
    Seed seed;
    const std::uint8_t flags = in.u8();
    if (!in.ok() || (flags & ~kSeedFlagHot) != 0) return std::nullopt;
    seed.hot = (flags & kSeedFlagHot) != 0;
    seed.found_at_exec = in.u64();
    seed.exec_cost_ns = in.u64();

    const std::uint32_t feature_count = in.count(8, kMaxSeedFeatures);
    if (!in.ok()) return std::nullopt;
    seed.features.reserve(feature_count);
    for (std::uint32_t i = 0; i < feature_count; ++i) {
      const Feature f = in.u64();
      // Strictly increasing: the canonical order add() produces, so the
      // accepted set round-trips byte-identically.
      if (!seed.features.empty() && f <= seed.features.back()) return std::nullopt;
      seed.features.push_back(f);
    }

    const std::uint32_t frame_count = in.count(kMinFrameBytes, kMaxSeedFrames);
    if (!in.ok() || frame_count == 0) return std::nullopt;
    seed.frames.reserve(frame_count);
    for (std::uint32_t i = 0; i < frame_count; ++i) {
      const std::uint32_t id = in.u32();
      const std::uint8_t fflags = in.u8();
      const std::uint8_t len = in.u8();
      if (!in.ok() || (fflags & ~kFrameFlagExtended) != 0 ||
          len > can::kMaxClassicPayload || len > in.remaining()) {
        return std::nullopt;
      }
      std::array<std::uint8_t, can::kMaxClassicPayload> payload{};
      for (std::uint8_t b = 0; b < len; ++b) payload[b] = in.u8();
      const auto format = (fflags & kFrameFlagExtended) != 0 ? can::IdFormat::kExtended
                                                             : can::IdFormat::kStandard;
      auto frame = can::CanFrame::data(id, std::span(payload.data(), len), format);
      if (!frame) return std::nullopt;
      // Canonical id check: a standard-format id above 11 bits was already
      // rejected by CanFrame::data; nothing else can alias.
      seed.frames.push_back(*frame);
    }
    corpus.seeds_.push_back(std::move(seed));
  }
  if (!in.done()) return std::nullopt;  // trailing garbage
  corpus.rebuild_cumulative_energy();
  return corpus;
}

bool Corpus::save(const std::string& path) const { return util::write_file(path, encode()); }

std::optional<Corpus> Corpus::load(const std::string& path) {
  const auto bytes = util::read_file(path);
  if (!bytes) return std::nullopt;
  return decode(*bytes);
}

}  // namespace acf::feedback
