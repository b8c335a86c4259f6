// ids::Pipeline: fans every observed frame to a detector set, thresholds
// scores into alerts, and merges alerts with per-(detector,id) cooldown so a
// babbling attack does not raise one alert per frame.
//
// Frames arrive either through the existing bus-listener path (attach() adds
// a listen-only tap node, invisible to the system under test, like the
// capture tap) or by direct observe() calls (trace replay, offline logs).
//
// The train-then-detect determinism rule: begin_training() routes frames to
// Detector::train, begin_detection() freezes the models, and from then on a
// detection run is a pure function of the frame stream — two pipelines with
// the same detectors fed the same stream raise byte-identical alerts.
//
// Counters live in a per-pipeline metrics::Registry (relaxed atomics under
// the hood): each fleet world owns its own pipeline (the world-isolation
// rule), but progress reporters and supervisors may read the counters from
// other threads while a campaign runs.  The hot path caches instrument
// pointers at construction/add() time, so scoring pays one relaxed add per
// counter — the same cost as the hand-rolled atomics it replaced.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "can/bus.hpp"
#include "ids/detector.hpp"
#include "ids/id_table.hpp"
#include "metrics/metrics.hpp"

namespace acf::ids {

struct PipelineConfig {
  /// Minimum gap between two alerts from the same (detector, id) pair;
  /// suppressed alerts are counted, not delivered.
  sim::Duration alert_cooldown{std::chrono::seconds(1)};
  /// Bound on the undrained alert queue (oldest kept; overflow counted).
  std::size_t max_pending_alerts = 4096;
};

/// Snapshot of the pipeline counters (plain values, copyable).
struct PipelineCounters {
  std::uint64_t frames_trained = 0;
  std::uint64_t frames_scored = 0;
  std::uint64_t alerts_raised = 0;
  std::uint64_t alerts_suppressed = 0;  // cooldown hits
  std::uint64_t alerts_dropped = 0;     // queue overflow
};

class Pipeline final : private can::BusListener {
 public:
  enum class Mode : std::uint8_t { kIdle, kTraining, kDetecting };

  explicit Pipeline(PipelineConfig config = {});
  ~Pipeline() override;

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Adds a detector (before training starts).  Returns its index.
  std::size_t add(std::unique_ptr<Detector> detector);

  std::size_t detector_count() const noexcept { return detectors_.size(); }
  const Detector& detector(std::size_t index) const { return *detectors_.at(index); }
  Detector& detector(std::size_t index) { return *detectors_.at(index); }

  /// Attaches a listen-only tap node to `bus`; the bus must outlive the
  /// pipeline or detach() must be called first.
  void attach(can::VirtualBus& bus, std::string name = "ids");
  void detach();

  void begin_training();
  /// Freezes every detector's model (finalize_training) and starts scoring.
  void begin_detection();
  Mode mode() const noexcept { return mode_; }

  /// Feeds one frame (the non-bus path: replay, log files, tests).
  void observe(const can::CanFrame& frame, sim::SimTime time);

  /// Invoked on every alert that survives dedup/cooldown.
  void set_on_alert(std::function<void(const Alert&)> callback) {
    on_alert_ = std::move(callback);
  }

  /// Invoked per scored frame with all detector scores, in detector order —
  /// the evaluation harness's raw-score feed for ROC sweeps.
  void set_score_hook(
      std::function<void(const can::CanFrame&, sim::SimTime, std::span<const double>)> hook) {
    score_hook_ = std::move(hook);
  }

  /// Removes and returns the queued alerts (oracle bridge drain point).
  std::vector<Alert> drain_alerts();

  PipelineCounters counters() const noexcept;
  std::uint64_t alerts_for(std::size_t detector_index) const;

  /// The pipeline's own metrics registry: `ids.pipeline.*` totals plus one
  /// `ids.alerts.<detector>` counter per detector.  Snapshot/absorb this
  /// into a campaign-wide registry to merge across worlds.  (Non-const:
  /// snapshotting flushes timer buffers.)
  metrics::Registry& registry() noexcept { return registry_; }

  /// Clears detection-side state (cooldowns, queue, detector clocks) for a
  /// fresh run against the same trained models.
  void reset_detection();

 private:
  void on_frame(const can::CanFrame& frame, sim::SimTime time) override;

  PipelineConfig config_;
  std::vector<std::unique_ptr<Detector>> detectors_;
  Mode mode_ = Mode::kIdle;

  can::VirtualBus* bus_ = nullptr;
  can::NodeId node_ = can::kInvalidNode;

  /// Per detector (by index): can id -> last alert time.
  std::vector<IdTable<sim::SimTime>> last_alert_;
  std::vector<Alert> pending_;
  std::vector<double> scores_;  // scratch, sized to detector_count

  // Registry-backed counters; the raw pointers cache registry lookups (the
  // registry hands out stable addresses) so observe() never takes the
  // registry lock.  Declared after registry_ so they cannot outlive it.
  metrics::Registry registry_;
  metrics::Counter* frames_trained_ = nullptr;
  metrics::Counter* frames_scored_ = nullptr;
  metrics::Counter* alerts_raised_ = nullptr;
  metrics::Counter* alerts_suppressed_ = nullptr;
  metrics::Counter* alerts_dropped_ = nullptr;
  std::vector<metrics::Counter*> per_detector_alerts_;

  std::function<void(const Alert&)> on_alert_;
  std::function<void(const can::CanFrame&, sim::SimTime, std::span<const double>)> score_hook_;
};

}  // namespace acf::ids
