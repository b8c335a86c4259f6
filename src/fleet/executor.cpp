#include "fleet/executor.hpp"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "metrics/metrics.hpp"

namespace acf::fleet {

void record_trial_metrics(metrics::Registry& registry, const TrialOutcome& outcome) {
  switch (outcome.status) {
    case TrialStatus::kCompleted:
      registry.counter("fleet.trial.completed").add(1);
      break;
    case TrialStatus::kFailed:
      registry.counter("fleet.trial.errors").add(1);
      break;
    case TrialStatus::kSkipped:
      registry.counter("fleet.trial.skipped").add(1);
      return;  // never ran: no frames, no timings
  }
  registry.counter("fleet.trial.frames_sent").add(outcome.frames_sent);
  registry.counter("fleet.trial.send_failures").add(outcome.send_failures);
  if (outcome.status != TrialStatus::kCompleted) return;
  registry.timer("fleet.trial.sim_seconds").record(outcome.sim_seconds);
  if (outcome.failure_detected()) {
    registry.counter("fleet.trial.detected").add(1);
    registry.timer("fleet.trial.time_to_failure").record(outcome.time_to_failure);
  } else if (outcome.timed_out()) {
    registry.counter("fleet.trial.timeout").add(1);
  }
}

TrialOutcome run_one_trial(const TrialSpec& spec, const WorldFactory& factory) {
  try {
    std::unique_ptr<World> world = factory(spec);
    if (!world) throw std::runtime_error("WorldFactory returned null");
    return outcome_from_result(spec, world->run());
  } catch (const std::exception& e) {
    TrialOutcome outcome;
    outcome.spec = spec;
    outcome.status = TrialStatus::kFailed;
    outcome.error = e.what();
    return outcome;
  } catch (...) {
    TrialOutcome outcome;
    outcome.spec = spec;
    outcome.status = TrialStatus::kFailed;
    outcome.error = "unknown exception";
    return outcome;
  }
}

void run_trial_pool(const TrialPlan& plan, const WorldFactory& factory, TrialSource& source,
                    ResultSink& sink, const ExecutorConfig& config,
                    const std::atomic<bool>* cancelled, ProgressReporter* progress) {
  const unsigned thread_count = std::max(config.threads, 1u);
  std::atomic<unsigned> active{thread_count};
  std::mutex coordinator_mutex;
  std::condition_variable coordinator_cv;

  auto worker = [&] {
    while (!(cancelled && cancelled->load(std::memory_order_relaxed))) {
      const std::optional<std::size_t> index = source.next();
      if (!index) break;
      TrialOutcome outcome = run_one_trial(plan.spec(*index), factory);
      // Registry first, so a snapshot line this record() writes counts the
      // trial in every instrument family.
      if (config.registry) record_trial_metrics(*config.registry, outcome);
      if (progress) progress->record(outcome);
      sink.push(std::move(outcome));
    }
    {
      // The lock pairs with the coordinator's predicate check, so the final
      // decrement can never slip between its check and its wait.
      std::lock_guard<std::mutex> lock(coordinator_mutex);
      active.fetch_sub(1, std::memory_order_release);
    }
    coordinator_cv.notify_all();
  };

  std::vector<std::thread> pool;
  pool.reserve(thread_count);
  for (unsigned t = 0; t < thread_count; ++t) pool.emplace_back(worker);

  {
    std::unique_lock<std::mutex> lock(coordinator_mutex);
    const auto finished = [&] { return active.load(std::memory_order_acquire) == 0; };
    while (!coordinator_cv.wait_for(lock, ProgressReporter::kStatusPeriod, finished)) {
      if (progress) progress->tick();
    }
  }
  for (std::thread& thread : pool) thread.join();
}

namespace {

/// Atomic cursor over [0, total): the local executor's dynamic sharding.
class CursorSource final : public TrialSource {
 public:
  explicit CursorSource(std::size_t total) : total_(total) {}
  std::optional<std::size_t> next() override {
    const std::size_t index = next_.fetch_add(1, std::memory_order_relaxed);
    if (index >= total_) return std::nullopt;
    return index;
  }

 private:
  std::size_t total_;
  std::atomic<std::size_t> next_{0};
};

/// Writes each outcome into the slot its trial index owns — no lock needed,
/// and the vector comes out index-ordered whatever the completion order.
class VectorSink final : public ResultSink {
 public:
  explicit VectorSink(std::vector<TrialOutcome>& outcomes) : outcomes_(outcomes) {}
  void push(TrialOutcome outcome) override {
    const std::size_t index = outcome.spec.trial_index;
    outcomes_[index] = std::move(outcome);
  }

 private:
  std::vector<TrialOutcome>& outcomes_;
};

}  // namespace

Executor::Executor(ExecutorConfig config) : config_(config) {}

unsigned Executor::effective_threads(std::size_t trial_count) const noexcept {
  unsigned threads = config_.threads;
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  if (trial_count < threads) threads = static_cast<unsigned>(trial_count);
  return threads == 0 ? 1u : threads;
}

std::vector<TrialOutcome> Executor::run(const TrialPlan& plan, const WorldFactory& factory,
                                        ProgressReporter* progress) {
  const std::size_t total = plan.trial_count();
  // Pre-fill every slot with its skipped-state spec so a cancelled fleet
  // still reports a complete, index-ordered outcome vector.
  std::vector<TrialOutcome> outcomes(total);
  for (std::size_t i = 0; i < total; ++i) outcomes[i].spec = plan.spec(i);
  if (total == 0) return outcomes;

  if (progress) progress->begin(total);

  CursorSource source(total);
  VectorSink sink(outcomes);
  run_trial_pool(plan, factory, source, sink, {effective_threads(total), config_.registry},
                 &cancelled_, progress);
  return outcomes;
}

}  // namespace acf::fleet
