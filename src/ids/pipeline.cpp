#include "ids/pipeline.hpp"

#include <string>
#include <utility>

namespace acf::ids {

namespace {
/// Minimum gap between two alerts from the same (detector, id) pair;
/// suppressed alerts are counted, not delivered.
constexpr sim::Duration kAlertCooldown = std::chrono::seconds(1);
}  // namespace

Pipeline::Pipeline() {
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
  alerts_.push_back(0);
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
    ++tallies_.frames_trained;
    return;
  }
  if (mode_ != Mode::kDetecting) return;
  ++tallies_.frames_scored;
  for (std::size_t i = 0; i < detectors_.size(); ++i) {
    scores_[i] = detectors_[i]->score(frame, time);
  }
  if (score_hook_) score_hook_(frame, time, scores_);
  for (std::size_t i = 0; i < detectors_.size(); ++i) {
    if (scores_[i] < detectors_[i]->threshold()) continue;
    const auto [last, first] = last_alert_[i].try_emplace(frame.id(), time);
    if (!first) {
      if (time - *last < kAlertCooldown) {
        ++tallies_.alerts_suppressed;
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
    ++tallies_.alerts_raised;
    ++alerts_[i];
    if (pending_.size() < kMaxPendingAlerts) {
      pending_.push_back(alert);
    } else {
      ++tallies_.alerts_dropped;
    }
    if (on_alert_) on_alert_(alert);
  }
}

std::vector<Alert> Pipeline::drain_alerts() {
  std::vector<Alert> drained;
  drained.swap(pending_);
  return drained;
}

metrics::Registry& Pipeline::registry() noexcept {
  auto publish = [](metrics::Counter* counter, std::uint64_t total) {
    counter->add(total - counter->value());
  };
  publish(frames_trained_, tallies_.frames_trained);
  publish(frames_scored_, tallies_.frames_scored);
  publish(alerts_raised_, tallies_.alerts_raised);
  publish(alerts_suppressed_, tallies_.alerts_suppressed);
  publish(alerts_dropped_, tallies_.alerts_dropped);
  for (std::size_t i = 0; i < alerts_.size(); ++i) publish(per_detector_alerts_[i], alerts_[i]);
  return registry_;
}

void Pipeline::reset_detection() {
  for (IdTable<sim::SimTime>& table : last_alert_) table.clear();
  pending_.clear();
  for (auto& detector : detectors_) detector->reset();
}

}  // namespace acf::ids
