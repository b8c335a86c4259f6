#include "fleet/runner.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <charconv>
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
/// `--metrics-out` stream, and the progress reporter that writes it.
struct Observer {
  metrics::Registry registry;
  std::ofstream file;
  std::optional<metrics::SnapshotWriter> writer;
  ProgressReporter progress;

  Observer(const CampaignOptions& options, const char* source, const std::string& program)
      : progress(registry, open(options, source, program),
                 options.metrics_interval.value_or(10)) {}

  metrics::SnapshotWriter* open(const CampaignOptions& options, const char* source,
                                const std::string& program) {
    if (options.metrics_path.empty()) return nullptr;
    if (options.metrics_path != "-") {
      file.open(options.metrics_path);
      if (!file) refuse(program, ("cannot open " + options.metrics_path).c_str());
    }
    return &writer.emplace(file.is_open() ? static_cast<std::ostream&>(file) : std::cerr,
                           source);
  }

  metrics::Registry* collecting() { return writer ? &registry : nullptr; }

  /// The closing status line, the stream's final line, and the operator
  /// table of the same snapshot.
  void finish() {
    if (const std::optional<metrics::RegistrySnapshot> snap = progress.finish()) {
      std::fprintf(stderr, "%s", metrics::render_table(*snap).c_str());
    }
  }
};

std::vector<TrialOutcome> run_in_process(const TrialPlan& plan, const FactoryBuilder& make_factory,
                                         const CampaignOptions& options,
                                         const std::string& program) {
  Observer observer(options, "local", program);
  Executor executor({options.threads, observer.collecting()});
  std::vector<TrialOutcome> outcomes =
      executor.run(plan, make_factory(observer.collecting()), &observer.progress);
  observer.finish();
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

/// Coordinator mode.  A checkpoint path that cannot be written fails the
/// run (status 1) before any worker starts.  A campaign paused before its
/// end exits the process: an orderly pause is a success once the checkpoint
/// holds every finished trial, and a failure (status 1) when that final
/// write failed (the metrics stream flushes every line, so exiting loses
/// none of it).  A completed campaign whose final write failed says so and
/// still returns its outcomes.
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
  std::optional<remote::Coordinator> coordinator;
  try {
    coordinator.emplace(plan, config);
  } catch (const std::runtime_error& error) {
    refuse(program, error.what(), 1);
  }
  observer.progress.set_snapshot_source([&] { return coordinator->merged_metrics(); });
  std::fprintf(stderr, "%s: serving %zu trials (%zu arms x %zu replicas) on 127.0.0.1:%u\n",
               program.c_str(), plan.trial_count(), plan.arm_count(), plan.replicas(),
               coordinator->port());
  if (const std::size_t resumed = coordinator->stats().resumed_done; resumed > 0) {
    std::fprintf(stderr, "%s: resumed checkpoint: %zu done\n", program.c_str(), resumed);
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
  // serve() returns after its linger window drained the workers' last
  // heartbeats, so the final line holds the fleet's totals.
  observer.finish();
  reap(children);
  if (coordinator->done_count() < plan.trial_count()) {
    if (!coordinator->checkpoint_saved()) {
      std::fprintf(stderr, "%s: paused after %zu trials, but the checkpoint %s was not written\n",
                   program.c_str(), coordinator->done_count(), options.checkpoint_path.c_str());
      std::exit(1);
    }
    std::fprintf(stderr, "%s: paused after %zu trials; checkpoint at %s\n", program.c_str(),
                 coordinator->done_count(), options.checkpoint_path.c_str());
    std::exit(0);
  }
  if (!options.checkpoint_path.empty() && !coordinator->checkpoint_saved()) {
    std::fprintf(stderr, "%s: campaign complete, but the checkpoint %s was not written\n",
                 program.c_str(), options.checkpoint_path.c_str());
  }
  return outcomes;
}

[[noreturn]] void serve_as_worker(const TrialPlan& plan, const FactoryBuilder& make_factory,
                                  std::string_view world_tag, const CampaignOptions& options,
                                  const std::string& program) {
  constexpr const char* kBadConnect = "--connect wants HOST:PORT, PORT a decimal 1-65535";
  const std::size_t colon = options.connect.rfind(':');
  if (colon == std::string::npos || colon == 0) refuse(program, kBadConnect);
  const std::string_view port = std::string_view(options.connect).substr(colon + 1);
  unsigned port_number = 0;
  const auto [port_end, port_error] =
      std::from_chars(port.data(), port.data() + port.size(), port_number);
  if (port_error != std::errc() || port_end != port.data() + port.size() || port_number == 0 ||
      port_number > 65535) {
    refuse(program, kBadConnect);
  }
  remote::WorkerConfig config;
  config.host = options.connect.substr(0, colon);
  config.port = static_cast<std::uint16_t>(port_number);
  config.threads = options.threads;
  config.world_tag = std::string(world_tag);
  config.heartbeat_period = options.heartbeat_period.value_or(config.heartbeat_period);
  // Workers always collect: whether anyone reads the totals is the
  // coordinator's call, and heartbeats carry them for next to nothing.
  metrics::Registry registry;
  config.registry = &registry;
  remote::Worker worker(plan, make_factory(&registry), config);
  const remote::WorkerResult result = worker.run();

  // Indexed by remote::WorkerExit.
  constexpr const char* kExits[] = {"complete", "paused", "rejected", "gave up"};
  std::fprintf(stderr,
               "%s[pid-%ld]: %s after %zu trials, %llu leases (%llu reconnect attempts)%s%s\n",
               program.c_str(), static_cast<long>(::getpid()),
               kExits[static_cast<int>(result.exit)], result.trials_run,
               static_cast<unsigned long long>(result.leases_served),
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
  if (options.stop_after > 0 && options.checkpoint_path.empty()) {
    refuse(program, "--stop-after needs --checkpoint: a pause keeps its trials only there");
  }
  if (options.serve && options.workers == 0 &&
      (options.threads != 0 || options.kill_worker_after > 0)) {
    refuse(program, "--threads and --kill-worker-after need forked workers");
  }
  if (options.metrics_path.empty() && options.metrics_interval) {
    refuse(program, "--metrics-interval needs --metrics-out");
  }
  if (options.workers > plan.trial_count()) {
    // Checked before the port is bound: a worker per trial is the most any
    // campaign can use, and a typo must not fork thousands of processes.
    refuse(program, ("cannot fork " + std::to_string(options.workers) + " workers for " +
                     std::to_string(plan.trial_count()) + " trials")
                        .c_str());
  }
  return options.serve ? coordinate(plan, world_tag, options, argv, program)
                       : run_in_process(plan, make_factory, options, program);
}

}  // namespace acf::fleet
