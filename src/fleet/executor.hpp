// Trial execution engine and its seams.
//
// run_trial_pool() is the one place in the repo that turns trial indices
// into outcomes on a std::thread pool: workers pull indices from a
// TrialSource, construct their world via the user's WorldFactory on their
// own thread, and hand the outcome to a ResultSink.  Because a trial's
// seed, inputs and identity depend only on its index, the set of outcomes
// is byte-identical regardless of thread count, scheduling order — or which
// process ran it.  The local Executor and the remote fleet worker are both
// thin backends over this seam: the Executor feeds a cursor over the whole
// plan into an index-ordered vector, while the remote worker feeds lease
// batches from the coordinator into a socket.
//
// A trial that throws is crash-isolated: the exception is captured into its
// outcome (TrialStatus::kFailed) and the pool moves on — one diverging
// world must not kill a 400-trial fleet.
#pragma once

#include <atomic>
#include <optional>
#include <vector>

#include "fleet/progress.hpp"
#include "fleet/trial.hpp"
#include "fleet/trial_plan.hpp"

namespace acf::metrics {
class Registry;
}

namespace acf::fleet {

/// Hands out trial indices to pool threads.  next() may block (the remote
/// worker's source waits for lease grants) and must be safe to call from
/// multiple threads; nullopt means drained — the pool thread exits.
class TrialSource {
 public:
  virtual ~TrialSource() = default;
  virtual std::optional<std::size_t> next() = 0;
};

/// Receives outcomes as trials finish — in completion order, not index
/// order.  push() is called concurrently from pool threads and must
/// synchronise internally (or, like the executor's vector sink, write to
/// slots owned by the trial index).
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void push(TrialOutcome outcome) = 0;
};

/// Runs one trial in isolation: builds the world, runs it, captures any
/// exception into a kFailed outcome.  Shared by every backend so local and
/// remote execution of the same spec produce identical bytes.
TrialOutcome run_one_trial(const TrialSpec& spec, const WorldFactory& factory);

/// Folds one finished trial into the `fleet.trial.*` instrument family:
/// status counters, frame totals, and the sim-seconds / time-to-failure
/// timers.  Called by run_trial_pool for every outcome when a registry is
/// attached — the same path locally and on remote workers, so the merged
/// fleet-wide counters equal the in-process ones.
void record_trial_metrics(metrics::Registry& registry, const TrialOutcome& outcome);

struct ExecutorConfig {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  unsigned threads = 0;
  /// When set, every outcome is folded in via record_trial_metrics.
  metrics::Registry* registry = nullptr;
};

/// Drains `source` through `factory` on exactly `config.threads` pool
/// threads (at least one; the callers resolve 0 first), pushing outcomes to
/// `sink`; blocks until the source is drained (or `cancelled` observed).
/// The calling thread waits, ticking `progress` for its status line.
void run_trial_pool(const TrialPlan& plan, const WorldFactory& factory, TrialSource& source,
                    ResultSink& sink, const ExecutorConfig& config,
                    const std::atomic<bool>* cancelled = nullptr,
                    ProgressReporter* progress = nullptr);

/// The local backend: runs every trial of a TrialPlan in this process.
class Executor {
 public:
  explicit Executor(ExecutorConfig config = {});

  /// Runs the whole plan; blocks until every trial finished or cancel() was
  /// observed.  Returns one outcome per trial in trial-index order; trials
  /// never started due to cancellation are TrialStatus::kSkipped.  A
  /// `progress` reporter is begun and records every result; its finish()
  /// is the caller's.
  std::vector<TrialOutcome> run(const TrialPlan& plan, const WorldFactory& factory,
                                ProgressReporter* progress = nullptr);

  /// Requests an early stop: workers finish their current trial and exit.
  /// Safe from any thread (e.g. a signal-handler relay).
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept { return cancelled_.load(std::memory_order_relaxed); }

  /// Threads run() will actually use for `trial_count` trials.
  unsigned effective_threads(std::size_t trial_count) const noexcept;

 private:
  ExecutorConfig config_;
  std::atomic<bool> cancelled_{false};
};

}  // namespace acf::fleet
