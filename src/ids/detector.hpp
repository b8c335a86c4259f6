// Online CAN intrusion detection: the defense side of the paper's story.
//
// The paper's only quantified defense is the one-line DLC check (Table V:
// 431 s -> 1959 s mean time-to-unlock) — a degenerate intrusion detector
// wired into the BCM.  This subsystem generalizes it: a Detector observes
// every frame on the bus and assigns an anomaly score; an ids::Pipeline fans
// frames to a detector set, thresholds the scores into alerts and merges
// them.  Detectors follow the train-then-detect rule: a training window of
// known-clean traffic fixes the model, then detection never mutates it — so
// a detection run is a pure function of (model, frame stream) and fleet
// trials stay deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "can/frame.hpp"
#include "sim/time.hpp"

namespace acf::ids {

/// One anomaly report, after the pipeline's dedup/cooldown.
struct Alert {
  /// Index of the raising detector within its pipeline.
  std::size_t detector = 0;
  std::string detector_name;
  std::uint32_t can_id = 0;
  /// The detector's anomaly score for the frame (>= its threshold).
  double score = 0.0;
  sim::SimTime time{0};

  /// "timing id=0x215 score=0.93 t=12.045s" one-liner for logs/findings.
  std::string to_string() const;
};

/// Interface all detectors implement.  Scoring must be O(1) per frame
/// (bounded hash lookups / per-message signal counts) — the pipeline sits on
/// the hot delivery path of every bus frame.
class Detector {
 public:
  virtual ~Detector() = default;

  virtual std::string_view name() const = 0;

  /// Training phase: observe one frame of known-clean traffic.
  virtual void train(const can::CanFrame& frame, sim::SimTime time) {
    (void)frame;
    (void)time;
  }

  /// Ends the training phase; the model is frozen after this call.
  virtual void finalize_training() {}

  /// Detection phase: anomaly score in [0,1] for `frame`.  May update
  /// detection-side state (arrival clocks, payload windows) but never the
  /// trained model.
  virtual double score(const can::CanFrame& frame, sim::SimTime time) = 0;

  /// Clears detection-side state between runs; the trained model survives.
  virtual void reset() {}

  /// Scores at or above the threshold raise alerts in a pipeline.
  double threshold() const noexcept { return threshold_; }

 protected:
  Detector() = default;
  explicit Detector(double threshold) : threshold_(threshold) {}

  double threshold_ = 0.5;
};

}  // namespace acf::ids
