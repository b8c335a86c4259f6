// Fuzz-coverage metrics: the paper's challenge §III-B4 is that CPS fuzzing
// lacks measurable effectiveness metrics ("the final count of bugs found ...
// can only be relative to other runs on the same system").  This tracker
// offers input-space metrics that *are* comparable across runs of the same
// configuration: which ids and (id, dlc) cells were exercised, and how many
// oracle events fired.
#pragma once

#include <bitset>
#include <cstdint>

#include "can/frame.hpp"

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
};

}  // namespace acf::fuzzer
