#include "ids/pipeline.hpp"

#include <string>
#include <utility>

namespace acf::ids {

Pipeline::Pipeline(PipelineConfig config) : config_(config) {
  frames_trained_ = &registry_.counter("ids.pipeline.frames_trained");
  frames_scored_ = &registry_.counter("ids.pipeline.frames_scored");
  alerts_raised_ = &registry_.counter("ids.pipeline.alerts_raised");
  alerts_suppressed_ = &registry_.counter("ids.pipeline.alerts_suppressed");
  alerts_dropped_ = &registry_.counter("ids.pipeline.alerts_dropped");
}

Pipeline::~Pipeline() { detach(); }

std::size_t Pipeline::add(std::unique_ptr<Detector> detector) {
  const std::size_t index = detectors_.size();
  // Registry names are per-detector; a duplicate detector name would alias
  // the counter, so disambiguate with the index.
  std::string counter_name = "ids.alerts." + std::string(detector->name());
  metrics::Counter* counter = &registry_.counter(counter_name);
  for (const metrics::Counter* existing : per_detector_alerts_) {
    if (existing == counter) {
      counter = &registry_.counter(counter_name + "#" + std::to_string(index));
      break;
    }
  }
  detectors_.push_back(std::move(detector));
  last_alert_.emplace_back();
  per_detector_alerts_.push_back(counter);
  scores_.resize(detectors_.size());
  return index;
}

void Pipeline::attach(can::VirtualBus& bus, std::string name) {
  detach();
  bus_ = &bus;
  node_ = bus.attach(*this, std::move(name), {}, /*listen_only=*/true);
}

void Pipeline::detach() {
  if (bus_ != nullptr) {
    bus_->detach(node_);
    bus_ = nullptr;
    node_ = can::kInvalidNode;
  }
}

void Pipeline::begin_training() { mode_ = Mode::kTraining; }

void Pipeline::begin_detection() {
  if (mode_ != Mode::kDetecting) {
    for (auto& detector : detectors_) detector->finalize_training();
  }
  mode_ = Mode::kDetecting;
}

void Pipeline::on_frame(const can::CanFrame& frame, sim::SimTime time) {
  observe(frame, time);
}

void Pipeline::observe(const can::CanFrame& frame, sim::SimTime time) {
  if (mode_ == Mode::kTraining) {
    for (auto& detector : detectors_) detector->train(frame, time);
    frames_trained_->add(1);
    return;
  }
  if (mode_ != Mode::kDetecting) return;
  frames_scored_->add(1);
  for (std::size_t i = 0; i < detectors_.size(); ++i) {
    scores_[i] = detectors_[i]->score(frame, time);
  }
  if (score_hook_) score_hook_(frame, time, scores_);
  for (std::size_t i = 0; i < detectors_.size(); ++i) {
    if (scores_[i] < detectors_[i]->threshold()) continue;
    const auto [last, first] = last_alert_[i].try_emplace(frame.id(), time);
    if (!first) {
      if (time - *last < config_.alert_cooldown) {
        alerts_suppressed_->add(1);
        continue;
      }
      *last = time;
    }
    Alert alert;
    alert.detector = i;
    alert.detector_name = std::string(detectors_[i]->name());
    alert.can_id = frame.id();
    alert.score = scores_[i];
    alert.time = time;
    alerts_raised_->add(1);
    per_detector_alerts_[i]->add(1);
    if (pending_.size() < config_.max_pending_alerts) {
      pending_.push_back(alert);
    } else {
      alerts_dropped_->add(1);
    }
    if (on_alert_) on_alert_(alert);
  }
}

std::vector<Alert> Pipeline::drain_alerts() {
  std::vector<Alert> drained;
  drained.swap(pending_);
  return drained;
}

PipelineCounters Pipeline::counters() const noexcept {
  PipelineCounters counters;
  counters.frames_trained = frames_trained_->value();
  counters.frames_scored = frames_scored_->value();
  counters.alerts_raised = alerts_raised_->value();
  counters.alerts_suppressed = alerts_suppressed_->value();
  counters.alerts_dropped = alerts_dropped_->value();
  return counters;
}

std::uint64_t Pipeline::alerts_for(std::size_t detector_index) const {
  return per_detector_alerts_.at(detector_index)->value();
}

void Pipeline::reset_detection() {
  for (IdTable<sim::SimTime>& table : last_alert_) table.clear();
  pending_.clear();
  for (auto& detector : detectors_) detector->reset();
}

}  // namespace acf::ids
