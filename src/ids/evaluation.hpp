// Detector evaluation: ground-truth frame labeling, confusion counts,
// threshold-sweep ROC curves and detection latency.
//
// Ground truth is established at the source: the fuzz campaign's
// on_frame_sent hook notes every injected frame, and the labeler matches
// bus-observed frames against that note queue — a frame is an attack frame
// iff the fuzzer put it on the wire.  Everything downstream is pure
// counting: per-detector score histograms (attack / legitimate) from which
// precision, recall, F1, ROC points and AUC all derive, so a trial's
// evaluation is O(1) memory and merges across fleet trials by summation.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "can/frame.hpp"
#include "ids/pipeline.hpp"
#include "sim/time.hpp"

namespace acf::ids {

/// FIFO ground-truth labeler.  note_injected() at send time; a later
/// consume_if_attack() with an identical frame pops one note and labels the
/// observation as attack traffic.  Content matching is exact (id, format,
/// remote and FD flags, DLC, payload; the FD bit-rate switch is ignored); a
/// frame dropped by the bus simply leaves its note unconsumed.
class FrameLabeler {
 public:
  void note_injected(const can::CanFrame& frame);
  bool consume_if_attack(const can::CanFrame& frame);

  std::uint64_t injected() const noexcept { return injected_; }
  std::uint64_t matched() const noexcept { return matched_; }
  /// Injected frames not (yet) observed on the bus.
  std::uint64_t outstanding() const noexcept { return injected_ - matched_; }

 private:
  /// A frame's matched content as a fixed-size POD, payload bytes past
  /// `length` zero, carrying its own hash: the map recomputes a key's hash
  /// whenever it walks a bucket, so that is a load, not a pass over bytes.
  struct Key {
    std::size_t hash;
    std::uint32_t id;
    std::uint8_t flags;  // extended | remote << 1 | fd << 2
    std::uint8_t dlc;
    std::uint8_t length;
    std::array<std::uint8_t, can::kMaxFdPayload> payload;

    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const noexcept { return key.hash; }
  };

  static Key key_of(const can::CanFrame& frame) noexcept;

  std::unordered_map<Key, std::uint32_t, KeyHash> pending_;
  std::uint64_t injected_ = 0;
  std::uint64_t matched_ = 0;
};

/// One point of a ROC sweep.
struct RocPoint {
  double threshold = 0.0;
  double tpr = 0.0;  // recall at this threshold
  double fpr = 0.0;
};

/// Confusion counts and score histograms for one detector.  `tp/fp/tn/fn`
/// are taken at the detector's configured threshold; the histograms support
/// the full threshold sweep.  Merge across trials by summation.
struct DetectorEval {
  static constexpr std::size_t kBins = 256;

  std::string name;
  double threshold = 0.5;
  std::uint64_t tp = 0, fp = 0, tn = 0, fn = 0;
  std::vector<std::uint64_t> attack_bins;  // kBins score-histogram, attack frames
  std::vector<std::uint64_t> legit_bins;   // kBins score-histogram, legitimate frames
  /// Sim seconds from the first attack frame on the bus to this detector's
  /// first true positive; negative when it never fired on attack traffic.
  double detection_latency = -1.0;

  DetectorEval();

  static std::size_t bin_of(double score) noexcept;

  double precision() const noexcept;
  double recall() const noexcept;
  double f1() const noexcept;
  double false_positive_rate() const noexcept;

  /// ROC points at `points` evenly spaced thresholds over [0,1], inclusive.
  std::vector<RocPoint> roc(std::size_t points = 11) const;
  /// Area under the full histogram-resolution ROC curve (trapezoid rule;
  /// 0.5 when either class is empty).
  double auc() const;

  /// Sums counts and histograms; latency is per-trial and NOT merged here
  /// (fleet reports aggregate latencies with Welford stats instead).
  void merge_counts(const DetectorEval& other);
};

/// Per-trial evaluation result: one DetectorEval per pipeline detector,
/// plus the pipeline's own counter snapshot (taken at trial end) so
/// evaluation-side and pipeline-side tallies can be cross-checked: every
/// scored frame is labeled (frames_scored == attack + legit) and every
/// over-threshold score either raises or suppresses an alert
/// (alerts_raised + alerts_suppressed == Σ_det (tp + fp)).
struct TrialEval {
  std::vector<DetectorEval> detectors;
  std::uint64_t attack_frames = 0;
  std::uint64_t legit_frames = 0;
  PipelineCounters pipeline;
  bool valid() const noexcept { return !detectors.empty(); }
};

/// Wires a pipeline's score hook to a labeler and accumulates a TrialEval.
/// Construct after the pipeline's detectors are added; connect the fuzz
/// campaign via `labeler().note_injected` (campaign on_frame_sent hook).
class PipelineEvaluator {
 public:
  explicit PipelineEvaluator(Pipeline& pipeline);

  FrameLabeler& labeler() noexcept { return labeler_; }
  const TrialEval& eval() const noexcept { return eval_; }
  TrialEval take() { return std::move(eval_); }

 private:
  void on_scores(const can::CanFrame& frame, sim::SimTime time, std::span<const double> scores);

  FrameLabeler labeler_;
  TrialEval eval_;
  double first_attack_time_ = -1.0;  // sim seconds; <0 until seen
};

}  // namespace acf::ids
