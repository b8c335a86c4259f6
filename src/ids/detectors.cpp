#include "ids/detectors.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

namespace acf::ids {

namespace {

constexpr double kUnknownIdScore = 1.0;
constexpr double kUnseenDlcScore = 0.75;

// Timing: EWMA smoothing for the per-id mean inter-arrival and its
// deviation; the band's half-width in deviations and its floor as a fraction
// of the learned period; the training frames an id needs to learn a band.
constexpr double kTimingAlpha = 0.125;
constexpr double kTimingDevGain = 4.0;
constexpr double kTimingFloorFraction = 0.5;
constexpr std::uint64_t kTimingMinTrainFrames = 4;

double clamp01(double x) noexcept { return std::clamp(x, 0.0, 1.0); }

std::uint16_t dlc_bit(const can::CanFrame& frame) noexcept {
  return static_cast<std::uint16_t>(1u << (frame.dlc() & 0x0F));
}

}  // namespace

// ----------------------------------------------------------- allowlist -----

AllowlistDetector::AllowlistDetector() : Detector(0.5) {}

AllowlistDetector::AllowlistDetector(const dbc::Database& database) : Detector(0.5) {
  for (const dbc::MessageDef& message : database.messages()) {
    allowed_[message.id] = static_cast<std::uint16_t>(
        allowed_[message.id] | static_cast<std::uint16_t>(1u << (message.dlc & 0x0F)));
  }
}

void AllowlistDetector::train(const can::CanFrame& frame, sim::SimTime) {
  allowed_[frame.id()] = static_cast<std::uint16_t>(allowed_[frame.id()] | dlc_bit(frame));
}

double AllowlistDetector::score(const can::CanFrame& frame, sim::SimTime) {
  const std::uint16_t* allowed = allowed_.find(frame.id());
  if (allowed == nullptr) return kUnknownIdScore;
  if ((*allowed & dlc_bit(frame)) == 0) return kUnseenDlcScore;
  return 0.0;
}

// ---------------------------------------------------- dlc consistency -----

DlcConsistencyDetector::DlcConsistencyDetector(const dbc::Database& database)
    : Detector(0.5) {
  for (const dbc::MessageDef& message : database.messages()) {
    declared_dlc_[message.id] = message.dlc;
  }
}

double DlcConsistencyDetector::score(const can::CanFrame& frame, sim::SimTime) {
  const std::uint8_t* declared = declared_dlc_.find(frame.id());
  if (declared == nullptr) return 0.0;  // undeclared: not this job
  // Same check as MessageDef::dlc_matches — one implementation of the
  // paper's hardening, used here to detect and in the BCM to reject.
  return (frame.is_remote() || frame.dlc() != *declared) ? 1.0 : 0.0;
}

// --------------------------------------------------------------- timing -----

TimingDetector::TimingDetector() : Detector(0.5) {}

void TimingDetector::train(const can::CanFrame& frame, sim::SimTime time) {
  Training& t = training_[frame.id()];
  if (t.frames++ == 0) {
    t.last = time;
    return;
  }
  const double gap = sim::to_seconds(time - t.last);
  t.last = time;
  if (t.frames == 2) {
    t.mean_gap = gap;
    t.mean_dev = gap * 0.25;
    return;
  }
  const double dev = std::abs(gap - t.mean_gap);
  t.mean_gap += kTimingAlpha * (gap - t.mean_gap);
  t.mean_dev += kTimingAlpha * (dev - t.mean_dev);
}

void TimingDetector::finalize_training() {
  bands_.clear();
  training_.for_each([this](std::uint32_t id, const Training& t) {
    if (t.frames < kTimingMinTrainFrames || t.mean_gap <= 0.0) return;
    const double tolerance =
        std::max(kTimingDevGain * t.mean_dev, kTimingFloorFraction * t.mean_gap);
    const double lo = t.mean_gap - tolerance;
    if (lo > 0.0) bands_.try_emplace(id, lo);
  });
}

double TimingDetector::score(const can::CanFrame& frame, sim::SimTime time) {
  const double* band = bands_.find(frame.id());
  if (band == nullptr) return 0.0;
  const auto [last, first] = last_seen_.try_emplace(frame.id(), time);
  if (first) return 0.0;
  const double gap = sim::to_seconds(time - *last);
  *last = time;
  if (gap >= *band) return 0.0;
  return clamp01(1.0 - gap / *band);
}

void TimingDetector::reset() { last_seen_.clear(); }

double TimingDetector::lower_bound_s(std::uint32_t id) const {
  const double* band = bands_.find(id);
  return band == nullptr ? -1.0 : *band;
}

// ---------------------------------------------------------------- range -----

RangeDetector::RangeDetector(const dbc::Database& database) : Detector(0.5) {
  for (const dbc::MessageDef& message : database.messages()) {
    RangedMessage ranged;
    for (const dbc::SignalDef& signal : message.signals) {
      if (signal.min != signal.max) ranged.signals.push_back(signal);
    }
    if (!ranged.signals.empty()) messages_.try_emplace(message.id, std::move(ranged));
  }
}

double RangeDetector::score(const can::CanFrame& frame, sim::SimTime) {
  const RangedMessage* ranged = messages_.find(frame.id());
  if (ranged == nullptr || frame.is_remote()) return 0.0;
  std::size_t decoded = 0;
  std::size_t violations = 0;
  for (const dbc::SignalDef& signal : ranged->signals) {
    const auto physical = dbc::decode(signal, frame.payload());
    if (!physical) continue;  // short frame: the signal is absent, not wrong
    ++decoded;
    if (!signal.in_declared_range(*physical)) ++violations;
  }
  if (decoded == 0) return 0.0;
  return static_cast<double>(violations) / static_cast<double>(decoded);
}

// -------------------------------------------------------------- entropy -----

namespace {

/// c*log2(c) and log2(n) for every count a window can hold, filled once
/// from the same std::log2 expressions a per-frame computation evaluates, so
/// an entry is the identical double and every running sum and score is
/// bit-identical to computing the logs per frame.
struct EntropyTables {
  static constexpr std::uint32_t kMaxBytes = 16 * can::kMaxClassicPayload;
  std::array<double, kMaxBytes + 1> c_log_c{};
  std::array<double, kMaxBytes + 1> log2{};

  EntropyTables() {
    for (std::uint32_t c = 1; c <= kMaxBytes; ++c) {
      c_log_c[c] = static_cast<double>(c) * std::log2(c);
      log2[c] = std::log2(static_cast<double>(c));
    }
  }
};

const EntropyTables& entropy_tables() {
  static const EntropyTables tables;
  return tables;
}

}  // namespace

EntropyDetector::EntropyDetector() : Detector(0.6) {}

void EntropyDetector::push(Window& window, std::uint64_t head, std::uint8_t length) {
  static_assert(EntropyTables::kMaxBytes == kWindowFrames * can::kMaxClassicPayload);
  static_assert(std::is_trivially_copyable_v<Window> && sizeof(Window) <= 416);
  const EntropyTables& tables = entropy_tables();
  // The sum stays in a local: a store to a uint8_t count may alias it, so
  // updated in place it would go through memory around every count.  A
  // count of 0 reads c_log_c[0] == +0.0, and adding or subtracting +0.0
  // leaves any sum but -0.0 unchanged; the sum starts at +0.0 and x - x is
  // +0.0, so it is never -0.0.  Zero counts therefore need no test, which
  // saves a branch that random payloads make unpredictable.
  double sum = window.sum_c_log_c;
  auto count_delta = [&window, &tables, &sum](std::uint8_t value, int delta) {
    std::uint8_t& c = window.counts[value];
    sum -= tables.c_log_c[c];
    c = static_cast<std::uint8_t>(c + delta);
    sum += tables.c_log_c[c];
  };
  if (window.frames == kWindowFrames) {
    const Window::Slot& old = window.ring[window.head];
    for (std::size_t i = 0; i < old.length; ++i) count_delta(old.bytes[i], -1);
    window.bytes_total = static_cast<std::uint8_t>(window.bytes_total - old.length);
    --window.frames;
  }
  Window::Slot& slot = window.ring[window.head];
  static_assert(sizeof head == sizeof slot.bytes);
  std::memcpy(slot.bytes.data(), &head, sizeof head);
  slot.length = length;
  for (std::size_t i = 0; i < length; ++i) count_delta(slot.bytes[i], +1);
  window.sum_c_log_c = sum;
  window.bytes_total = static_cast<std::uint8_t>(window.bytes_total + length);
  ++window.frames;
  window.head = static_cast<std::uint8_t>((window.head + 1) % kWindowFrames);
}

void EntropyDetector::replay(const History& history, Window& window) {
  for (std::size_t i = 0; i < history.frames; ++i) {
    push(window, history.heads[i], static_cast<std::uint8_t>((history.lengths >> (4 * i)) & 0xF));
  }
}

const EntropyDetector::Window* EntropyDetector::observe(const can::CanFrame& frame) {
  static_assert(sizeof(History) <= 64 && (kMinFrames - 1) * 4 <= 32);
  // A frame's payload storage spans kMaxFdPayload bytes, so the first 8 are
  // always readable; the length says how many of them count.
  const auto payload = frame.payload();
  std::uint64_t head = 0;
  std::memcpy(&head, payload.data(), sizeof head);
  const auto length =
      static_cast<std::uint8_t>(std::min(payload.size(), can::kMaxClassicPayload));

  if (Window* window = windows_.find(frame.id())) {
    push(*window, head, length);
    return window;
  }
  History& history = histories_[frame.id()];
  if (history.frames + 1u < kMinFrames) {
    history.heads[history.frames] = head;
    history.lengths |= std::uint32_t{length} << (4 * history.frames);
    ++history.frames;
    return nullptr;
  }
  // The window's first eviction comes at frame kWindowFrames + 1 and nothing
  // reads its sum before frame kMinFrames, so building it now from the kept
  // frames performs the same additions in the same order as building it at
  // the id's first frame would have.
  Window& window = *windows_.try_emplace(frame.id()).first;
  replay(history, window);
  push(window, head, length);
  return &window;
}

double EntropyDetector::normalized_entropy(const Window& window) {
  const double n = static_cast<double>(window.bytes_total);
  if (n <= 1.0) return 0.0;
  const double log2_n = entropy_tables().log2[window.bytes_total];
  const double entropy = log2_n - window.sum_c_log_c / n;
  const double max_entropy = std::min(8.0, log2_n);
  if (max_entropy <= 0.0) return 0.0;
  return clamp01(entropy / max_entropy);
}

void EntropyDetector::train(const can::CanFrame& frame, sim::SimTime) { observe(frame); }

void EntropyDetector::finalize_training() {
  baseline_.clear();
  windows_.for_each([this](std::uint32_t id, const Window& window) {
    baseline_.try_emplace(id, normalized_entropy(window));
  });
}

double EntropyDetector::score(const can::CanFrame& frame, sim::SimTime) {
  const Window* window = observe(frame);
  if (window == nullptr) return 0.0;
  const double h = normalized_entropy(*window);
  const double* base = baseline_.find(frame.id());
  if (base == nullptr || *base >= 1.0) return h;
  return clamp01((h - *base) / (1.0 - *base));
}

// Drops window contents but keeps learned baselines.
void EntropyDetector::reset() {
  windows_.clear();
  histories_.clear();
}

double EntropyDetector::window_entropy(std::uint32_t id) const {
  if (const Window* window = windows_.find(id)) return normalized_entropy(*window);
  const History* history = histories_.find(id);
  if (history == nullptr) return 0.0;
  Window window;
  replay(*history, window);
  return normalized_entropy(window);
}

// ----------------------------------------------------------------- set -----

std::vector<std::unique_ptr<Detector>> standard_detectors(const dbc::Database& database) {
  std::vector<std::unique_ptr<Detector>> detectors;
  detectors.push_back(std::make_unique<AllowlistDetector>(database));
  detectors.push_back(std::make_unique<TimingDetector>());
  detectors.push_back(std::make_unique<RangeDetector>(database));
  detectors.push_back(std::make_unique<EntropyDetector>());
  return detectors;
}

}  // namespace acf::ids
