// Campaign runner: the one entry point that runs a fleet campaign, for
// fleet_run and every fleet bench.  run_campaign() runs a TrialPlan in one
// of three modes: in-process on fleet::Executor (the default); as a
// coordinator (`serve`) that leases the plan to `workers` forked copies of
// this binary; or as a worker (`connect`).  A forked worker is exec'd with
// this process's argv unchanged plus `--connect 127.0.0.1:PORT`, so it
// rebuilds the identical campaign from the identical flags, and its stdout
// goes to stderr so the coordinator's stdout stays the report alone.  The
// runner owns the metrics registry, the `--metrics-out` stream, the
// ProgressReporter that writes it and the status line, the operator table
// on stderr, and forking and reaping the workers.  Outcomes are
// byte-identical in every mode.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/trial.hpp"
#include "fleet/trial_plan.hpp"

namespace acf::metrics {
class Registry;
}

namespace acf::fleet {

/// Builds a campaign's world factory.  Trials publish their scheduler, bus
/// and IDS totals into `registry`, which outlives every world; it is null
/// when nothing collects.  Workers always collect, an in-process run only
/// with a metrics path, and a coordinator builds no worlds at all.
using FactoryBuilder = std::function<WorldFactory(metrics::Registry* registry)>;

struct CampaignOptions {
  unsigned threads = 0;  // trial threads per process; 0 = hardware concurrency
  /// Coordinator mode: serve on 127.0.0.1:`serve_port` (0 = ephemeral) and
  /// fork `workers` worker processes.
  bool serve = false;
  std::uint16_t serve_port = 0;
  std::size_t workers = 0;
  std::string connect;  // worker mode: the coordinator's "HOST:PORT"
  /// acf-metrics-v1 stream ("-" = stderr; empty = none): a line every
  /// `metrics_interval` trials (default 10; 0 = final line only).
  std::string metrics_path;
  std::optional<std::size_t> metrics_interval;
  /// Coordinator only: resumable checkpoint, pause after `stop_after`
  /// trials, SIGKILL the first forked worker after `kill_worker_after`
  /// completions (the crash-tolerance smoke).
  std::string checkpoint_path;
  std::size_t stop_after = 0;
  std::size_t kill_worker_after = 0;
  /// Lease timings; unset keeps the CoordinatorConfig / WorkerConfig defaults.
  std::optional<std::chrono::milliseconds> lease_ttl;
  std::optional<std::size_t> max_batch;
  std::optional<std::chrono::milliseconds> heartbeat_period;
};

/// Runs `plan` and returns one outcome per trial, in trial-index order.
/// `world_tag` names the campaign in the handshake fingerprint; `argv` is
/// main()'s null-terminated argv, re-used to exec workers.  Returns only
/// when every trial has finished: worker mode, and a coordinator paused at
/// `stop_after` (status 0 once the checkpoint holds every finished trial,
/// 1 when writing it failed), exit the process instead.  Options that cannot
/// take effect in the chosen mode, `stop_after` without a checkpoint among
/// them, exit 2, and so do more `workers` than the plan has trials: nothing
/// is bound or forked first.
std::vector<TrialOutcome> run_campaign(const TrialPlan& plan, const FactoryBuilder& make_factory,
                                       std::string_view world_tag,
                                       const CampaignOptions& options, char* const* argv);

}  // namespace acf::fleet
