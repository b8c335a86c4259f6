#include "fuzzer/campaign.hpp"

#include <algorithm>

namespace acf::fuzzer {

namespace {
/// Injected frames retained per finding for reproduction.
constexpr std::size_t kFindingWindow = 32;
}  // namespace

const char* to_string(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kStillRunning: return "still-running";
    case StopReason::kDurationElapsed: return "duration-elapsed";
    case StopReason::kFrameLimit: return "frame-limit";
    case StopReason::kGeneratorExhausted: return "generator-exhausted";
    case StopReason::kFailureDetected: return "failure-detected";
    case StopReason::kStoppedByUser: return "stopped-by-user";
  }
  return "?";
}

bool CampaignResult::any_failure() const noexcept { return first_failure() != nullptr; }

const Finding* CampaignResult::first_failure() const noexcept {
  const auto it = std::find_if(findings.begin(), findings.end(), [](const Finding& f) {
    return f.observation.verdict == oracle::Verdict::kFailure;
  });
  return it == findings.end() ? nullptr : &*it;
}

FuzzCampaign::FuzzCampaign(sim::Scheduler& scheduler, transport::CanTransport& transport,
                           FrameGenerator& generator, oracle::Oracle* oracle,
                           CampaignConfig config)
    : scheduler_(scheduler), transport_(transport), generator_(generator), oracle_(oracle),
      config_(config), recent_(kFindingWindow) {}

sim::Duration FuzzCampaign::elapsed_now() const {
  if (finished_) return result_.elapsed;  // frozen at finish time
  return started_flag_ ? scheduler_.now() - started_ : sim::Duration{0};
}

void FuzzCampaign::start() {
  if (started_flag_) return;
  started_flag_ = true;
  started_ = scheduler_.now();
  tx_event_ = scheduler_.schedule_every(config_.tx_period, [this] { tx_tick(); });
  if (oracle_ != nullptr) {
    oracle_event_ = scheduler_.schedule_every(config_.oracle_period, [this] { oracle_tick(); });
  }
  deadline_event_ = scheduler_.schedule_after(config_.max_duration,
                                              [this] { finish(StopReason::kDurationElapsed); });
}

void FuzzCampaign::stop() { finish(StopReason::kStoppedByUser); }

const CampaignResult& FuzzCampaign::run() {
  start();
  // The deadline event guarantees termination; run a generous horizon.
  scheduler_.run_until_condition([this] { return finished_; },
                                 started_ + config_.max_duration + std::chrono::seconds(1));
  return result_;
}

void FuzzCampaign::tx_tick() {
  if (finished_) return;
  const auto frame = generator_.next();
  if (!frame) {
    finish(StopReason::kGeneratorExhausted);
    return;
  }
  if (transport_.send(*frame)) {
    ++result_.frames_sent;
  } else {
    ++result_.send_failures;
  }
  recent_.push({*frame, scheduler_.now()});
  if (config_.max_frames != 0 && result_.frames_sent >= config_.max_frames) {
    finish(StopReason::kFrameLimit);
  }
}

void FuzzCampaign::oracle_tick() {
  if (finished_) return;
  const auto observation = oracle_->poll(scheduler_.now());
  if (!observation) return;
  const bool is_failure = observation->verdict == oracle::Verdict::kFailure;
  if (!is_failure && !config_.record_suspicious) return;

  Finding finding;
  finding.observation = *observation;
  finding.frames_sent = result_.frames_sent;
  finding.recent_frames = recent_.snapshot();
  finding.generator = std::string(generator_.name());
  result_.findings.push_back(finding);
  if (on_finding_) on_finding_(result_.findings.back());

  if (is_failure && config_.stop_on_failure) finish(StopReason::kFailureDetected);
}

void FuzzCampaign::finish(StopReason reason) {
  if (finished_) return;
  result_.elapsed = elapsed_now();  // before the flag freezes the clock
  finished_ = true;
  result_.reason = reason;
  scheduler_.cancel(tx_event_);
  scheduler_.cancel(oracle_event_);
  scheduler_.cancel(deadline_event_);
}

}  // namespace acf::fuzzer
