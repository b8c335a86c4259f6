// Detector evaluation: ground-truth frame labeling, confusion counts,
// threshold-sweep ROC curves and detection latency.
//
// Ground truth is established at the source: both IDS worlds (the Table V
// fuzz of ids_world.hpp and the scenario catalog of attack_world.hpp) send
// their attack traffic through a LabelingTransport, which notes each frame
// the bus accepted, and the labeler matches bus-observed frames against
// that note queue — a frame is an attack frame iff the attacker put it on
// the wire.  Everything downstream is pure counting: per-detector score
// histograms (attack / legitimate) from which precision, recall, F1, ROC
// points and AUC all derive, so a trial's evaluation is O(1) memory and
// merges across fleet trials by summation.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "can/frame.hpp"
#include "ids/pipeline.hpp"
#include "sim/time.hpp"
#include "transport/transport.hpp"

namespace acf::ids {

/// Ground-truth labeler: a multiset of injected frame contents.
/// note_injected() at send time; a later consume_if_attack() with an
/// identical frame takes one note and labels the observation as attack
/// traffic.  Content matching is exact (id, format, remote and FD flags, DLC,
/// payload; the FD bit-rate switch is ignored); a frame dropped by the bus
/// simply leaves its note unconsumed.
///
/// Pending notes live in one flat open-addressing table of {content, count}
/// slots: linear probing on the content hash, backward-shift deletion (no
/// tombstones) and doubling at 3/4 load, so a probe stays a few slots long
/// however many notes are never consumed.  Once the table has grown to a
/// trial's peak pending set, noting and consuming allocate nothing.
class FrameLabeler {
 public:
  void note_injected(const can::CanFrame& frame);
  bool consume_if_attack(const can::CanFrame& frame);

  std::uint64_t injected() const noexcept { return injected_; }
  std::uint64_t matched() const noexcept { return matched_; }
  /// Injected frames not (yet) observed on the bus.
  std::uint64_t outstanding() const noexcept { return injected_ - matched_; }

 private:
  /// A frame's matched content as a fixed-size POD carrying its own hash:
  /// probing and moving slots read the hash, and comparing two keys checks
  /// it first, then the head and the payload words the length covers.
  struct Key {
    std::uint64_t hash;
    std::uint64_t head;  // id | flags << 32 | dlc << 40 | length << 48
    /// The payload, 8 bytes a word; zero past the length.
    std::array<std::uint64_t, can::kMaxFdPayload / 8> words;
  };
  /// One table slot; count 0 marks it empty.
  struct Slot {
    Key key;
    std::uint32_t count;
  };

  static Key key_of(const can::CanFrame& frame) noexcept;
  static bool same_content(const Key& a, const Key& b) noexcept;
  /// The slot holding `key`, or the empty slot that ends its probe.
  std::size_t probe(const Key& key) const noexcept;
  void erase(std::size_t slot) noexcept;
  void grow();

  std::vector<Slot> slots_;  // power-of-two size, or empty before the first note
  std::size_t occupied_ = 0;
  std::uint64_t injected_ = 0;
  std::uint64_t matched_ = 0;
};

/// The one labeling hook: a transport decorator that notes each frame as
/// injected once its inner transport has accepted it, so a frame the bus
/// refuses (bus-off, full queue) leaves no note.  The name, stats, rx
/// callback and error state are the inner transport's.
class LabelingTransport final : public transport::CanTransport {
 public:
  LabelingTransport(transport::CanTransport& inner, FrameLabeler& labeler)
      : inner_(inner), labeler_(labeler) {}

  bool send(const can::CanFrame& frame) override {
    if (!inner_.send(frame)) return false;
    labeler_.note_injected(frame);
    return true;
  }
  void set_rx_callback(transport::RxCallback callback) override {
    inner_.set_rx_callback(std::move(callback));
  }
  std::string name() const override { return inner_.name(); }
  const transport::TransportStats& stats() const override { return inner_.stats(); }
  const can::ErrorState* bus_error_state() const override { return inner_.bus_error_state(); }

 private:
  transport::CanTransport& inner_;
  FrameLabeler& labeler_;
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
/// Construct after the pipeline's detectors are added; send the attack
/// traffic through a LabelingTransport over `labeler()`.
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
