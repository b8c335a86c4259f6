#include "feedback/corpus.hpp"

#include <algorithm>
#include <fstream>
#include <set>

#include "util/bytes.hpp"

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

}  // namespace

bool Corpus::add(Seed seed) {
  if (seeds_.size() >= kMaxCorpusSeeds) return false;
  std::sort(seed.features.begin(), seed.features.end());
  seed.features.erase(std::unique(seed.features.begin(), seed.features.end()),
                      seed.features.end());
  seeds_.push_back(std::move(seed));
  return true;
}

std::uint64_t Corpus::energy(std::size_t i) const {
  // Hot seeds (ECU state / oracle domain) soak up most of the mutation
  // budget: they are the ones a few byte flips away from a finding.
  return seeds_.at(i).hot ? 32 : 1;
}

std::size_t Corpus::pick(util::Rng& rng) const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < seeds_.size(); ++i) total += energy(i);
  std::uint64_t roll = rng.next_below(total);
  for (std::size_t i = 0; i < seeds_.size(); ++i) {
    const std::uint64_t e = energy(i);
    if (roll < e) return i;
    roll -= e;
  }
  return seeds_.size() - 1;  // unreachable; guards rounding mistakes
}

std::size_t Corpus::minimize() {
  if (seeds_.size() < 2) return 0;
  std::set<Feature> uncovered;
  for (const Seed& seed : seeds_) {
    uncovered.insert(seed.features.begin(), seed.features.end());
  }
  std::vector<bool> kept(seeds_.size(), false);
  while (!uncovered.empty()) {
    std::size_t best = seeds_.size();
    std::size_t best_gain = 0;
    for (std::size_t i = 0; i < seeds_.size(); ++i) {
      if (kept[i]) continue;
      std::size_t gain = 0;
      for (const Feature f : seeds_[i].features) gain += uncovered.count(f);
      if (gain > best_gain) {  // ties resolve to the earliest seed
        best_gain = gain;
        best = i;
      }
    }
    if (best == seeds_.size()) break;  // remaining seeds add nothing
    kept[best] = true;
    for (const Feature f : seeds_[best].features) uncovered.erase(f);
  }
  std::vector<Seed> survivors;
  survivors.reserve(seeds_.size());
  for (std::size_t i = 0; i < seeds_.size(); ++i) {
    if (kept[i]) survivors.push_back(std::move(seeds_[i]));
  }
  const std::size_t dropped = seeds_.size() - survivors.size();
  seeds_ = std::move(survivors);
  return dropped;
}

std::size_t Corpus::distinct_features() const {
  std::set<Feature> all;
  for (const Seed& seed : seeds_) all.insert(seed.features.begin(), seed.features.end());
  return all.size();
}

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
  const std::uint32_t seed_count = in.u32();
  if (!in.ok() || seed_count > kMaxCorpusSeeds ||
      static_cast<std::size_t>(seed_count) * kMinSeedBytes > in.remaining()) {
    return std::nullopt;
  }
  Corpus corpus;
  corpus.seeds_.reserve(seed_count);
  for (std::uint32_t s = 0; s < seed_count; ++s) {
    Seed seed;
    const std::uint8_t flags = in.u8();
    if (!in.ok() || (flags & ~kSeedFlagHot) != 0) return std::nullopt;
    seed.hot = (flags & kSeedFlagHot) != 0;
    seed.found_at_exec = in.u64();
    seed.exec_cost_ns = in.u64();

    const std::uint32_t feature_count = in.u32();
    if (!in.ok() || feature_count > kMaxSeedFeatures ||
        static_cast<std::size_t>(feature_count) * 8 > in.remaining()) {
      return std::nullopt;
    }
    seed.features.reserve(feature_count);
    for (std::uint32_t i = 0; i < feature_count; ++i) {
      const Feature f = in.u64();
      // Strictly increasing: the canonical order add() produces, so the
      // accepted set round-trips byte-identically.
      if (!seed.features.empty() && f <= seed.features.back()) return std::nullopt;
      seed.features.push_back(f);
    }

    const std::uint32_t frame_count = in.u32();
    if (!in.ok() || frame_count == 0 || frame_count > kMaxSeedFrames ||
        static_cast<std::size_t>(frame_count) * kMinFrameBytes > in.remaining()) {
      return std::nullopt;
    }
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
  return corpus;
}

bool Corpus::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const auto bytes = encode();
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

std::optional<Corpus> Corpus::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  return decode(bytes);
}

}  // namespace acf::feedback
