#include "fuzzer/coverage.hpp"

#include <algorithm>

#include "metrics/metrics.hpp"

namespace acf::fuzzer {

void CoverageTracker::add(const can::CanFrame& frame) {
  ++frames_;
  if (frame.is_extended()) return;  // metrics are for the 11-bit space
  const std::size_t id = frame.id();
  ids_.set(id);
  const std::size_t dlc = std::min<std::size_t>(frame.length(), 8);
  id_dlc_.set(id * 9 + dlc);
}

void CoverageTracker::publish_metrics(metrics::Registry& registry) const {
  registry.counter("fuzz.coverage.frames").add(frames_);
  registry.counter("fuzz.coverage.oracle_events").add(oracle_events_);
  registry.counter("fuzz.coverage.ids_max").bump_to(ids_covered());
  registry.counter("fuzz.coverage.id_dlc_cells_max").bump_to(id_dlc_cells_covered());
}

}  // namespace acf::fuzzer
