#include "fleet/progress.hpp"

#include <algorithm>
#include <cstdio>

#include "metrics/snapshot.hpp"

namespace acf::fleet {

namespace {

double sim_seconds_of(const metrics::RegistrySnapshot& snap) {
  for (const metrics::TimerSnap& timer : snap.timers) {
    if (timer.name == "fleet.trial.sim_seconds") return timer.sum;
  }
  return 0.0;
}

}  // namespace

ProgressReporter::ProgressReporter(metrics::Registry& registry, metrics::SnapshotWriter* writer,
                                   std::size_t interval)
    : done_(registry.counter("fleet.progress.completed")),
      errors_(registry.counter("fleet.progress.errors")),
      frames_(registry.counter("fleet.progress.frames_sent")),
      duplicates_(registry.counter("fleet.progress.duplicates")),
      leases_out_(registry.gauge("fleet.leases.outstanding")),
      stolen_(registry.counter("fleet.leases.trials_stolen")),
      expired_(registry.counter("fleet.leases.expired")),
      rate_(registry.meter("fleet.progress.trials")),
      writer_(writer),
      interval_(interval),
      source_([&registry] { return registry.snapshot(); }) {}

void ProgressReporter::begin(std::size_t total, std::size_t already_done) {
  total_ = total;
  already_done_ = already_done;
  started_ = std::chrono::steady_clock::now();
  last_status_ = started_;
  rate_.tick_to(0.0);
}

void ProgressReporter::record(const TrialOutcome& outcome) {
  frames_.add(outcome.frames_sent);
  if (outcome.status == TrialStatus::kFailed) errors_.add(1);
  rate_.mark(1);
  const std::uint64_t done = done_.add(1);
  if (writer_ && interval_ > 0 && done % interval_ == 0) write_line();
}

void ProgressReporter::set_lease_counters(std::size_t outstanding, std::uint64_t stolen,
                                          std::uint64_t expired) noexcept {
  leases_shown_ = true;
  leases_out_.set(static_cast<std::int64_t>(outstanding));
  stolen_.bump_to(stolen);
  expired_.bump_to(expired);
}

void ProgressReporter::tick() {
  const auto now = std::chrono::steady_clock::now();
  if (now - last_status_ < kStatusPeriod) return;
  last_status_ = now;
  print_status();
}

std::optional<metrics::RegistrySnapshot> ProgressReporter::finish() {
  print_status();
  if (!writer_) return std::nullopt;
  return write_line();
}

metrics::RegistrySnapshot ProgressReporter::write_line() {
  std::lock_guard<std::mutex> lock(line_mutex_);
  metrics::RegistrySnapshot snap = source_();
  writer_->write(snap, sim_seconds_of(snap));
  return snap;
}

void ProgressReporter::print_status() {
  {
    std::lock_guard<std::mutex> lock(line_mutex_);
    rate_.tick_to(elapsed_seconds());
  }
  std::fprintf(stderr, "%s\n", line().c_str());
}

double ProgressReporter::elapsed_seconds() const {
  const auto elapsed = std::chrono::steady_clock::now() - started_;
  return std::chrono::duration<double>(elapsed).count();
}

std::string ProgressReporter::line() const {
  // Defensive clamp: a misrouted duplicate must degrade the display, not
  // produce a negative ETA.
  const std::size_t done =
      std::min(already_done_ + static_cast<std::size_t>(done_.value()), total_);
  const auto errors = static_cast<unsigned long long>(errors_.value());
  const double seconds = elapsed_seconds();
  const double rate = seconds > 0.0 ? static_cast<double>(done) / seconds : 0.0;
  char buffer[224];
  int written;
  if (done >= total_ || rate <= 0.0) {
    written = std::snprintf(buffer, sizeof buffer,
                            "fleet: %zu/%zu trials (%llu errors) | %.1f trials/s | "
                            "%.1f s elapsed",
                            done, total_, errors, rate, seconds);
  } else {
    const double eta = static_cast<double>(total_ - done) / rate;
    written = std::snprintf(buffer, sizeof buffer,
                            "fleet: %zu/%zu trials (%llu errors) | %.1f trials/s | "
                            "ETA %.0f s",
                            done, total_, errors, rate, eta);
  }
  std::string out(buffer, written > 0 ? static_cast<std::size_t>(written) : 0);
  if (leases_shown_) {
    std::snprintf(buffer, sizeof buffer,
                  " | leases out %lld stolen %llu expired %llu dup %llu",
                  static_cast<long long>(leases_out_.value()),
                  static_cast<unsigned long long>(stolen_.value()),
                  static_cast<unsigned long long>(expired_.value()),
                  static_cast<unsigned long long>(duplicates_.value()));
    out += buffer;
  }
  return out;
}

}  // namespace acf::fleet
