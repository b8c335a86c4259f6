#include "fuzzer/coverage.hpp"

#include <cstdio>

#include "metrics/metrics.hpp"

namespace acf::fuzzer {

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

}  // namespace acf::fuzzer
