// Fuzz-coverage metrics: the paper's challenge §III-B4 is that CPS fuzzing
// lacks measurable effectiveness metrics ("the final count of bugs found ...
// can only be relative to other runs on the same system").  This tracker
// offers input-space metrics that *are* comparable across runs of the same
// configuration: which (id, dlc) cells were exercised, per-position byte
// coverage, and oracle events per kiloframe.
#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <string>

#include "can/frame.hpp"
#include "fuzzer/config.hpp"

namespace acf::metrics {
class Registry;
}

namespace acf::fuzzer {

class CoverageTracker {
 public:
  void add(const can::CanFrame& frame);
  void add_oracle_event() noexcept { ++oracle_events_; }

  std::uint64_t frames() const noexcept { return frames_; }

  /// Distinct standard ids exercised (0..2048).
  std::size_t ids_covered() const noexcept { return ids_.count(); }
  /// Distinct (id, dlc) cells exercised (out of 2048 x 9).
  std::size_t id_dlc_cells_covered() const noexcept { return id_dlc_.count(); }
  /// Distinct byte values seen at payload position `pos` (0..256).
  std::size_t byte_values_covered(std::size_t pos) const;

  /// Fraction of the config's id space touched.
  double id_coverage(const FuzzConfig& config) const;
  /// Oracle events per 1000 frames — the run-comparable yield metric.
  double events_per_kiloframe() const;

  /// Multi-line human-readable summary.
  std::string report(const FuzzConfig& config) const;

  /// Adds this tracker's totals into `fuzz.coverage.*` registry counters:
  /// frames and oracle events sum across trials; distinct ids and (id,dlc)
  /// cells are per-trial set sizes that do not sum, so they publish as
  /// `*_max` watermarks (merged by max).  Worlds call it once at trial end.
  void publish_metrics(metrics::Registry& registry) const;

 private:
  std::uint64_t frames_ = 0;
  std::uint64_t oracle_events_ = 0;
  std::bitset<2048> ids_;
  std::bitset<2048 * 9> id_dlc_;
  std::array<std::bitset<256>, can::kMaxClassicPayload> byte_values_{};
};

}  // namespace acf::fuzzer
