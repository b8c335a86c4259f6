#include "ids/evaluation.hpp"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string_view>
#include <type_traits>

namespace acf::ids {

// -------------------------------------------------------------- labeler -----

FrameLabeler::Key FrameLabeler::key_of(const can::CanFrame& frame) noexcept {
  static_assert(std::is_trivial_v<Key> && std::is_standard_layout_v<Key>);
  Key key{};
  key.id = frame.id();
  key.flags = static_cast<std::uint8_t>((frame.is_extended() ? 1 : 0) |
                                        (frame.is_remote() ? 2 : 0) | (frame.is_fd() ? 4 : 0));
  key.dlc = frame.dlc();
  const auto payload = frame.payload();
  key.length = static_cast<std::uint8_t>(payload.size());
  std::copy(payload.begin(), payload.end(), key.payload.begin());
  // No padding lies between id and the payload, so the hashed bytes are
  // exactly id, flags, dlc, length and the live payload bytes.
  static_assert(offsetof(Key, payload) - offsetof(Key, id) == 7);
  key.hash = std::hash<std::string_view>{}(
      std::string_view(reinterpret_cast<const char*>(&key) + offsetof(Key, id),
                       offsetof(Key, payload) - offsetof(Key, id) + key.length));
  return key;
}

void FrameLabeler::note_injected(const can::CanFrame& frame) {
  ++pending_[key_of(frame)];
  ++injected_;
}

bool FrameLabeler::consume_if_attack(const can::CanFrame& frame) {
  const auto it = pending_.find(key_of(frame));
  if (it == pending_.end()) return false;
  if (--it->second == 0) pending_.erase(it);
  ++matched_;
  return true;
}

// -------------------------------------------------------- detector eval -----

DetectorEval::DetectorEval() : attack_bins(kBins, 0), legit_bins(kBins, 0) {}

std::size_t DetectorEval::bin_of(double score) noexcept {
  score = std::clamp(score, 0.0, 1.0);
  const auto bin = static_cast<std::size_t>(score * static_cast<double>(kBins));
  return std::min(bin, kBins - 1);
}

namespace {

double ratio(std::uint64_t num, std::uint64_t den) noexcept {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

double DetectorEval::precision() const noexcept { return ratio(tp, tp + fp); }
double DetectorEval::recall() const noexcept { return ratio(tp, tp + fn); }

double DetectorEval::f1() const noexcept {
  const double p = precision();
  const double r = recall();
  return (p + r) == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

double DetectorEval::false_positive_rate() const noexcept { return ratio(fp, fp + tn); }

std::vector<RocPoint> DetectorEval::roc(std::size_t points) const {
  if (points < 2) points = 2;
  std::uint64_t attack_total = 0, legit_total = 0;
  for (std::size_t b = 0; b < kBins; ++b) {
    attack_total += attack_bins[b];
    legit_total += legit_bins[b];
  }
  std::vector<RocPoint> curve;
  curve.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(points - 1);
    // Scores >= t alert; bin b holds scores in [b/kBins, (b+1)/kBins).
    const std::size_t first_bin = (i + 1 == points) ? kBins - 1 : bin_of(t);
    std::uint64_t attack_hits = 0, legit_hits = 0;
    for (std::size_t b = first_bin; b < kBins; ++b) {
      attack_hits += attack_bins[b];
      legit_hits += legit_bins[b];
    }
    // The top threshold (1.0) only counts the top bin's exact-1.0 scores, an
    // approximation one bin wide — consistent across merges, which is what
    // the sweep needs.
    curve.push_back({t, ratio(attack_hits, attack_total), ratio(legit_hits, legit_total)});
  }
  return curve;
}

double DetectorEval::auc() const {
  std::uint64_t attack_total = 0, legit_total = 0;
  for (std::size_t b = 0; b < kBins; ++b) {
    attack_total += attack_bins[b];
    legit_total += legit_bins[b];
  }
  if (attack_total == 0 || legit_total == 0) return 0.5;
  // Sweep thresholds from above the top bin down to 0, accumulating the
  // trapezoid area in (FPR, TPR) space.  Ties inside one bin contribute a
  // trapezoid, i.e. the standard 0.5 tie credit.
  double area = 0.0;
  double prev_tpr = 0.0, prev_fpr = 0.0;
  std::uint64_t attack_hits = 0, legit_hits = 0;
  for (std::size_t b = kBins; b-- > 0;) {
    attack_hits += attack_bins[b];
    legit_hits += legit_bins[b];
    const double tpr = ratio(attack_hits, attack_total);
    const double fpr = ratio(legit_hits, legit_total);
    area += (fpr - prev_fpr) * (tpr + prev_tpr) / 2.0;
    prev_tpr = tpr;
    prev_fpr = fpr;
  }
  return area;
}

void DetectorEval::merge_counts(const DetectorEval& other) {
  if (name.empty()) {
    name = other.name;
    threshold = other.threshold;
  }
  tp += other.tp;
  fp += other.fp;
  tn += other.tn;
  fn += other.fn;
  for (std::size_t b = 0; b < kBins; ++b) {
    attack_bins[b] += other.attack_bins[b];
    legit_bins[b] += other.legit_bins[b];
  }
}

// ------------------------------------------------------------ evaluator -----

PipelineEvaluator::PipelineEvaluator(Pipeline& pipeline) {
  eval_.detectors.resize(pipeline.detector_count());
  for (std::size_t i = 0; i < pipeline.detector_count(); ++i) {
    eval_.detectors[i].name = std::string(pipeline.detector(i).name());
    eval_.detectors[i].threshold = pipeline.detector(i).threshold();
  }
  pipeline.set_score_hook([this](const can::CanFrame& frame, sim::SimTime time,
                                 std::span<const double> scores) {
    on_scores(frame, time, scores);
  });
}

void PipelineEvaluator::on_scores(const can::CanFrame& frame, sim::SimTime time,
                                  std::span<const double> scores) {
  const bool attack = labeler_.consume_if_attack(frame);
  const double now_s = sim::to_seconds(time);
  if (attack) {
    ++eval_.attack_frames;
    if (first_attack_time_ < 0.0) first_attack_time_ = now_s;
  } else {
    ++eval_.legit_frames;
  }
  for (std::size_t i = 0; i < scores.size() && i < eval_.detectors.size(); ++i) {
    DetectorEval& det = eval_.detectors[i];
    const double score = scores[i];
    const bool alarm = score >= det.threshold;
    if (attack) {
      ++det.attack_bins[DetectorEval::bin_of(score)];
      alarm ? ++det.tp : ++det.fn;
      if (alarm && det.detection_latency < 0.0 && first_attack_time_ >= 0.0) {
        det.detection_latency = now_s - first_attack_time_;
      }
    } else {
      ++det.legit_bins[DetectorEval::bin_of(score)];
      alarm ? ++det.fp : ++det.tn;
    }
  }
}

}  // namespace acf::ids
