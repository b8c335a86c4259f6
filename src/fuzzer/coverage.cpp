#include "fuzzer/coverage.hpp"

#include <cstdio>

#include "metrics/metrics.hpp"

namespace acf::fuzzer {

namespace {

template <std::size_t N>
void append_bits(std::vector<std::uint64_t>& out, const std::bitset<N>& bits) {
  static_assert(N % 64 == 0);
  for (std::size_t word = 0; word < N / 64; ++word) {
    std::uint64_t value = 0;
    for (std::size_t bit = 0; bit < 64; ++bit) {
      if (bits.test(word * 64 + bit)) value |= std::uint64_t{1} << bit;
    }
    out.push_back(value);
  }
}

template <std::size_t N>
std::span<const std::uint64_t> read_bits(std::span<const std::uint64_t> in,
                                         std::bitset<N>& bits) {
  bits.reset();
  for (std::size_t word = 0; word < N / 64; ++word) {
    for (std::size_t bit = 0; bit < 64; ++bit) {
      if ((in[word] >> bit) & 1) bits.set(word * 64 + bit);
    }
  }
  return in.subspan(N / 64);
}

}  // namespace

void CoverageTracker::add(const can::CanFrame& frame) {
  ++frames_;
  if (frame.is_extended()) return;  // metrics are for the 11-bit space
  const std::size_t id = frame.id();
  ids_.set(id);
  const std::size_t dlc = std::min<std::size_t>(frame.length(), 8);
  id_dlc_.set(id * 9 + dlc);
  const auto payload = frame.payload();
  for (std::size_t i = 0; i < payload.size() && i < byte_values_.size(); ++i) {
    byte_values_[i].set(payload[i]);
  }
}

std::size_t CoverageTracker::byte_values_covered(std::size_t pos) const {
  return pos < byte_values_.size() ? byte_values_[pos].count() : 0;
}

double CoverageTracker::id_coverage(const FuzzConfig& config) const {
  const std::uint64_t space = config.id_space();
  if (space == 0) return 0.0;
  // Count only ids inside the config space.
  std::size_t covered = 0;
  if (!config.id_set.empty()) {
    for (std::uint32_t id : config.id_set) {
      if (id < ids_.size() && ids_.test(id)) ++covered;
    }
  } else {
    for (std::uint32_t id = config.id_min; id <= config.id_max && id < ids_.size(); ++id) {
      if (ids_.test(id)) ++covered;
    }
  }
  return static_cast<double>(covered) / static_cast<double>(space);
}

double CoverageTracker::events_per_kiloframe() const {
  if (frames_ == 0) return 0.0;
  return static_cast<double>(oracle_events_) * 1000.0 / static_cast<double>(frames_);
}

std::string CoverageTracker::report(const FuzzConfig& config) const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "frames: %llu\n"
                "id coverage: %.1f%% of the configured space (%zu distinct ids)\n"
                "(id,dlc) cells: %zu of 18432\n"
                "byte values at position 0: %zu/256\n"
                "oracle events per kiloframe: %.3f",
                static_cast<unsigned long long>(frames_), id_coverage(config) * 100.0,
                ids_covered(), id_dlc_cells_covered(), byte_values_covered(0),
                events_per_kiloframe());
  return buf;
}

void CoverageTracker::publish_metrics(metrics::Registry& registry) const {
  registry.counter("fuzz.coverage.frames").add(frames_);
  registry.counter("fuzz.coverage.oracle_events").add(oracle_events_);
  registry.counter("fuzz.coverage.ids_max").bump_to(ids_covered());
  registry.counter("fuzz.coverage.id_dlc_cells_max").bump_to(id_dlc_cells_covered());
}

void CoverageTracker::append_state(std::vector<std::uint64_t>& out) const {
  out.push_back(frames_);
  out.push_back(oracle_events_);
  append_bits(out, ids_);
  append_bits(out, id_dlc_);
  for (const auto& values : byte_values_) append_bits(out, values);
}

bool CoverageTracker::restore_state(std::span<const std::uint64_t> words) {
  if (words.size() != kStateWords) return false;
  frames_ = words[0];
  oracle_events_ = words[1];
  words = read_bits(words.subspan(2), ids_);
  words = read_bits(words, id_dlc_);
  for (auto& values : byte_values_) words = read_bits(words, values);
  return true;
}

}  // namespace acf::fuzzer
