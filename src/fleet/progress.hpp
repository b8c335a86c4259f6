// ProgressReporter: the one observer of a campaign, in-process or
// distributed.  Its tallies live in a metrics::Registry under
// `fleet.progress.*` / `fleet.leases.*` (plus the wall-driven
// `fleet.progress.trials` meter); it writes an acf-metrics-v1 snapshot line
// every N recorded results and the final line in finish(), and prints a
// trials/sec + ETA status line on stderr every two seconds.  Wall-clock
// lives only here — outcomes and aggregates never see it, preserving
// byte-identical fleet output.
//
// Completions may arrive out of trial-index order (remote workers finish
// batches at their own pace) and, after a lease is stolen, the same trial
// may be reported twice — record() only ever counts a completion, and the
// distributed service routes second arrivals to record_duplicate() so the
// done counter can never pass the total.  Lease traffic (outstanding /
// stolen / expired) is first-class: the coordinator publishes the gauges
// here and the status line shows them whenever a remote campaign is active.
//
// record() and record_duplicate() are safe from any thread.  begin(),
// set_lease_counters(), tick(), line() and finish() belong to the one thread
// that watches the campaign: the Executor's caller, or the coordinator's
// serve loop.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

#include "fleet/trial.hpp"
#include "metrics/metrics.hpp"

namespace acf::metrics {
class SnapshotWriter;
}

namespace acf::fleet {

class ProgressReporter {
 public:
  /// Status-line cadence.
  static constexpr std::chrono::seconds kStatusPeriod{2};

  /// Creates every instrument in `registry` up front, so each snapshot line
  /// names them all.  With a `writer`, every `interval`-th record() writes a
  /// line (0 = the final line only).  `registry` and `writer` must outlive
  /// the reporter.
  explicit ProgressReporter(metrics::Registry& registry,
                            metrics::SnapshotWriter* writer = nullptr, std::size_t interval = 0);

  /// What snapshot lines show; `registry.snapshot()` unless replaced (the
  /// coordinator's merged fleet-wide view).  Called under the line lock, on
  /// whichever thread's record() made the line due.
  void set_snapshot_source(std::function<metrics::RegistrySnapshot()> source) {
    source_ = std::move(source);
  }

  /// Arms the reporter for a fleet of `total` trials and starts the clock.
  /// `already_done` (checkpoint resume) counts toward the status line only:
  /// the registry counters stay this session's.
  void begin(std::size_t total, std::size_t already_done = 0);

  /// One finished trial, in any completion order; writes the snapshot line
  /// when this is the interval's Nth result.
  void record(const TrialOutcome& outcome);

  /// A completion for a trial that was already folded in (a stolen lease
  /// finished twice); counted separately, never advances completed.
  void record_duplicate() noexcept { duplicates_.add(1); }

  /// Lease gauges, published by the distributed coordinator.
  void set_lease_counters(std::size_t outstanding, std::uint64_t stolen,
                          std::uint64_t expired) noexcept;

  /// Prints the status line if kStatusPeriod has passed since begin() or
  /// the last one.
  void tick();

  /// Prints the closing status line and writes the stream's final line.
  /// Returns the snapshot that line shows, or nullopt without a writer.
  std::optional<metrics::RegistrySnapshot> finish();

  /// One status line: "fleet: 37/400 trials (2 errors) | 12.3 trials/s |
  /// ETA 29 s"; remote campaigns append "| leases out 3 stolen 1 expired 2".
  std::string line() const;

 private:
  double elapsed_seconds() const;
  void print_status();
  metrics::RegistrySnapshot write_line();

  metrics::Counter& done_;
  metrics::Counter& errors_;
  metrics::Counter& frames_;
  metrics::Counter& duplicates_;
  metrics::Gauge& leases_out_;
  metrics::Counter& stolen_;
  metrics::Counter& expired_;
  metrics::Meter& rate_;
  metrics::SnapshotWriter* writer_;
  std::size_t interval_;
  std::function<metrics::RegistrySnapshot()> source_;
  std::size_t total_ = 0;
  std::size_t already_done_ = 0;
  bool leases_shown_ = false;
  std::chrono::steady_clock::time_point started_{};
  std::chrono::steady_clock::time_point last_status_{};
  // Held while a snapshot is taken and written, so lines leave in the order
  // their snapshots were taken; the meter's clock advances under it too,
  // because snapshots read the meter's rates.
  std::mutex line_mutex_;
};

}  // namespace acf::fleet
