#include "fleet/runner.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "fleet/executor.hpp"
#include "fleet/progress.hpp"
#include "fleet/remote/coordinator.hpp"
#include "fleet/remote/worker.hpp"
#include "metrics/metrics.hpp"
#include "metrics/snapshot.hpp"

namespace acf::fleet {

namespace {

/// Exit status 2 for options that cannot take effect, 1 for runtime failures.
[[noreturn]] void refuse(const std::string& program, const char* message, int status = 2) {
  std::fprintf(stderr, "%s: %s\n", program.c_str(), message);
  std::exit(status);
}

/// What watches a campaign: the registry trials publish into, the
/// `--metrics-out` writer and the progress line.
struct Observer {
  metrics::Registry registry;
  std::ofstream file;
  std::optional<metrics::SnapshotWriter> writer;
  ProgressReporter progress;
  std::size_t interval;

  Observer(const CampaignOptions& options, const char* source, const std::string& program)
      : interval(options.metrics_interval.value_or(10)) {
    if (options.metrics_path.empty()) return;
    if (options.metrics_path != "-") {
      file.open(options.metrics_path);
      if (!file) refuse(program, ("cannot open " + options.metrics_path).c_str());
    }
    writer.emplace(file.is_open() ? static_cast<std::ostream&>(file) : std::cerr, source);
    progress.attach_registry(&registry);
  }

  metrics::Registry* collecting() { return writer ? &registry : nullptr; }
  metrics::SnapshotWriter* stream() { return writer ? &*writer : nullptr; }
};

std::vector<TrialOutcome> run_in_process(const TrialPlan& plan, const FactoryBuilder& make_factory,
                                         const CampaignOptions& options,
                                         const std::string& program) {
  Observer observer(options, "local", program);
  ExecutorConfig config;
  config.threads = options.threads;
  config.registry = observer.collecting();
  config.snapshot_writer = observer.stream();
  config.snapshot_interval = observer.interval;
  Executor executor(config);
  std::vector<TrialOutcome> outcomes =
      executor.run(plan, make_factory(config.registry), &observer.progress);
  if (observer.writer) {
    const metrics::RegistrySnapshot snap = observer.registry.snapshot();
    observer.writer->write(snap, observer.registry.timer("fleet.trial.sim_seconds").sum());
    std::fprintf(stderr, "%s", metrics::render_table(snap).c_str());
  }
  return outcomes;
}

/// Forks `count` workers: this binary exec'd with `argv` plus `--connect
/// 127.0.0.1:port`, each with its stdout joined to stderr.
std::vector<pid_t> spawn_workers(char* const* argv, std::uint16_t port, std::size_t count,
                                 const std::string& program) {
  std::string connect = "--connect";
  std::string endpoint = "127.0.0.1:" + std::to_string(port);
  std::vector<char*> args;
  for (char* const* arg = argv; *arg != nullptr; ++arg) args.push_back(*arg);
  args.insert(args.end(), {connect.data(), endpoint.data(), nullptr});
  std::vector<pid_t> children;
  for (std::size_t k = 0; k < count; ++k) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::dup2(STDERR_FILENO, STDOUT_FILENO);
      ::execv("/proc/self/exe", args.data());
      std::_Exit(127);
    }
    if (pid < 0) refuse(program, "cannot fork a worker", 1);
    children.push_back(pid);
  }
  return children;
}

/// Workers exit on the coordinator's Shutdown frame; one still alive a
/// second later gets SIGTERM, and SIGKILL a second after that.
void reap(const std::vector<pid_t>& children) {
  for (const pid_t pid : children) {
    int status = 0;
    for (int spins = 0; spins < 100; ++spins) {
      if (::waitpid(pid, &status, WNOHANG) != 0) break;
      ::usleep(20'000);
      if (spins == 50) ::kill(pid, SIGTERM);
    }
    if (::waitpid(pid, &status, WNOHANG) == 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
    }
  }
}

/// Coordinator mode.  A campaign paused before its end exits the process:
/// an orderly pause is a success, and the checkpoint holds the rest (the
/// metrics stream flushes every line, so exiting loses none of it).
std::vector<TrialOutcome> coordinate(const TrialPlan& plan, std::string_view world_tag,
                                     const CampaignOptions& options, char* const* argv,
                                     const std::string& program) {
  Observer observer(options, "coordinator", program);
  remote::CoordinatorConfig config;
  config.port = options.serve_port;
  config.world_tag = std::string(world_tag);
  config.checkpoint_path = options.checkpoint_path;
  config.stop_after_completed = options.stop_after;
  config.lease_ttl = options.lease_ttl.value_or(config.lease_ttl);
  config.max_batch = options.max_batch.value_or(config.max_batch);
  config.registry = observer.collecting();
  config.snapshot_writer = observer.stream();
  config.snapshot_interval = observer.interval;
  std::optional<remote::Coordinator> coordinator;
  try {
    coordinator.emplace(plan, config);
  } catch (const std::runtime_error& error) {
    refuse(program, error.what(), 1);
  }
  const remote::CoordinatorStats& stats = coordinator->stats();
  std::fprintf(stderr, "%s: serving %zu trials (%zu arms x %zu replicas) on 127.0.0.1:%u\n",
               program.c_str(), plan.trial_count(), plan.arm_count(), plan.replicas(),
               coordinator->port());
  if (stats.resumed_done > 0 || stats.resumed_leased > 0) {
    std::fprintf(stderr, "%s: resumed checkpoint: %zu done, %zu re-queued in-flight\n",
                 program.c_str(), stats.resumed_done, stats.resumed_leased);
  }

  const std::vector<pid_t> children =
      spawn_workers(argv, coordinator->port(), options.workers, program);
  if (options.kill_worker_after > 0) {
    coordinator->set_on_trial_done([&, victim = children.front(), killed = false](
                                       std::size_t done) mutable {
      if (killed || done < options.kill_worker_after) return;
      killed = true;
      std::fprintf(stderr, "%s: SIGKILL worker pid %d after %zu completions\n",
                   program.c_str(), static_cast<int>(victim), done);
      ::kill(victim, SIGKILL);
    });
  }
  std::vector<TrialOutcome> outcomes = coordinator->serve(&observer.progress);
  reap(children);
  // serve() wrote the stream's final line after its linger window drained
  // the workers' last heartbeats; the operator table renders the same view.
  if (observer.writer) {
    std::fprintf(stderr, "%s", metrics::render_table(coordinator->merged_metrics()).c_str());
  }
  if (coordinator->done_count() < plan.trial_count()) {
    std::fprintf(stderr, "%s: paused after %zu trials; checkpoint at %s\n", program.c_str(),
                 coordinator->done_count(), options.checkpoint_path.c_str());
    std::exit(0);
  }
  return outcomes;
}

[[noreturn]] void serve_as_worker(const TrialPlan& plan, const FactoryBuilder& make_factory,
                                  std::string_view world_tag, const CampaignOptions& options,
                                  const std::string& program) {
  const std::size_t colon = options.connect.rfind(':');
  if (colon == std::string::npos || colon == 0) refuse(program, "--connect wants HOST:PORT");
  remote::WorkerConfig config;
  config.host = options.connect.substr(0, colon);
  config.port = static_cast<std::uint16_t>(std::strtoul(&options.connect[colon + 1], nullptr, 0));
  config.threads = options.threads;
  config.world_tag = std::string(world_tag);
  config.name = "pid-" + std::to_string(static_cast<long>(::getpid()));
  config.heartbeat_period = options.heartbeat_period.value_or(config.heartbeat_period);
  // Workers always collect: whether anyone reads the totals is the
  // coordinator's call, and heartbeats carry them for next to nothing.
  metrics::Registry registry;
  config.registry = &registry;
  remote::Worker worker(plan, make_factory(&registry), config);
  const remote::WorkerResult result = worker.run();

  // Indexed by remote::WorkerExit.
  constexpr const char* kExits[] = {"complete", "paused", "rejected", "gave up", "cancelled"};
  std::fprintf(stderr, "%s[%s]: %s after %zu trials, %llu leases (%llu reconnect attempts)%s%s\n",
               program.c_str(), config.name.c_str(), kExits[static_cast<int>(result.exit)],
               result.trials_run, static_cast<unsigned long long>(result.leases_served),
               static_cast<unsigned long long>(result.reconnect.attempts),
               result.message.empty() ? "" : ": ", result.message.c_str());
  std::exit(result.exit == remote::WorkerExit::kCampaignComplete ||
                    result.exit == remote::WorkerExit::kCoordinatorPaused
                ? 0
                : 1);
}

}  // namespace

std::vector<TrialOutcome> run_campaign(const TrialPlan& plan, const FactoryBuilder& make_factory,
                                       std::string_view world_tag,
                                       const CampaignOptions& options, char* const* argv) {
  const std::string_view path = argv[0];
  const std::string program(path.substr(path.rfind('/') + 1));  // prefixes every line
  if (!options.connect.empty()) serve_as_worker(plan, make_factory, world_tag, options, program);
  // Outside worker mode every option must take effect.
  if (!options.serve && (options.workers > 0 || !options.checkpoint_path.empty() ||
                         options.stop_after > 0 || options.kill_worker_after > 0)) {
    refuse(program, "--workers, --checkpoint, --stop-after and --kill-worker-after need --serve");
  }
  if (options.serve && options.workers == 0 &&
      (options.threads != 0 || options.kill_worker_after > 0)) {
    refuse(program, "--threads and --kill-worker-after need forked workers");
  }
  if (options.metrics_path.empty() && options.metrics_interval) {
    refuse(program, "--metrics-interval needs --metrics-out");
  }
  return options.serve ? coordinate(plan, world_tag, options, argv, program)
                       : run_in_process(plan, make_factory, options, program);
}

}  // namespace acf::fleet
