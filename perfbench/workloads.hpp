// The benchmark's four workloads.  Each is a fixed fleet::TrialPlan run
// in-process through fleet::Executor with one of the library's own world
// factories; a round runs the plan once, exports its outputs (per-trial
// JSONL, per-arm summary, and the IDS matrix where the workload has one)
// and digests them.  Rounds repeat the same plan, so every round of a run
// must produce the same digest.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/trial_plan.hpp"
#include "harness.hpp"
#include "metrics/metrics.hpp"

namespace perfbench {

enum class WorkloadKind { kUnlockBlind, kUnlockIds, kFeedback, kAttackMatrix };

/// The --workload values, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Everything one round produced.
struct Round {
  std::vector<acf::fleet::TrialOutcome> outcomes;
  std::vector<TrialTiming> timings;
  /// The digested bytes.
  std::string output;
  std::uint64_t digest = 0;
  /// The IDS identities (scored == labeled, raised + suppressed == tp + fp)
  /// held for every arm; always true on workloads without an IDS.
  bool identities_ok = true;
  std::string identity_error;
  /// The counters the round's worlds published.
  acf::metrics::RegistrySnapshot registry;
  unsigned threads = 1;  // pool threads the executor actually ran
  std::int64_t start_ns = 0;
  std::int64_t pool_start_ns = 0;
  std::int64_t pool_end_ns = 0;
  std::int64_t report_ns = 0;  // aggregate + eval merge + export
  std::int64_t end_ns = 0;

  std::int64_t wall_ns() const noexcept { return end_ns - start_ns; }
  std::size_t failed_trials() const noexcept;
  /// Registry counter value (0 when the round's worlds never published it).
  std::uint64_t counter(std::string_view name) const noexcept;
};

class Workload {
 public:
  /// Throws std::invalid_argument for a name outside workload_names().
  /// `replicas` overrides the per-arm replica count (0 = the workload's own).
  Workload(std::string_view name, std::uint64_t seed, std::size_t replicas = 0);

  const std::string& name() const noexcept { return name_; }
  WorkloadKind kind() const noexcept { return kind_; }
  const acf::fleet::TrialPlan& plan() const noexcept { return plan_; }
  /// Pool threads the workload is measured on.
  unsigned threads() const noexcept { return threads_; }

  /// Runs the plan once on `threads` pool threads.  With a non-null log,
  /// the round's phases and every trial's build/run/teardown become spans.
  Round run_round(unsigned threads, SpanLog* log = nullptr) const;

  /// Performs a round's set-up, then returns the steady-clock time at which
  /// the pool asks for its first world, without running any trial.
  std::int64_t first_trial_start() const;

 private:
  std::string name_;
  WorkloadKind kind_;
  unsigned threads_;
  acf::fleet::TrialPlan plan_;
};

}  // namespace perfbench
