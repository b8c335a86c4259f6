#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "attacks/attack_world.hpp"
#include "feedback/worlds.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/executor.hpp"
#include "fleet/jsonl.hpp"
#include "fleet/worlds.hpp"
#include "ids/ids_world.hpp"
#include "util/json.hpp"

namespace perfbench {

namespace {

using acf::util::json_double;
using acf::util::json_escape;

using Kind = WorkloadKind;

/// Plan sizes.  Every trial is capped by the plan's simulated-time budget
/// so no heavy-tailed trial dominates a round; each plan has at least 100
/// trials (ten beyond p90) and each round is short enough that a run holds
/// well over ten rounds.  The unlock workloads share one plan, so their
/// difference is the IDS tap.
struct Definition {
  std::string_view name;
  Kind kind;
  unsigned threads;
  std::size_t replicas;  // per arm
  acf::sim::Duration budget;
};

using std::chrono::milliseconds;
using std::chrono::seconds;

const Definition kDefinitions[] = {
    {"unlock-blind", Kind::kUnlockBlind, 1, 50, seconds(5)},
    {"unlock-ids", Kind::kUnlockIds, 1, 50, seconds(5)},
    {"feedback", Kind::kFeedback, 1, 80, milliseconds(500)},
    {"attack-matrix", Kind::kAttackMatrix, 2, 12, seconds(3)},
};

const Definition& definition(std::string_view name) {
  for (const Definition& def : kDefinitions) {
    if (def.name == name) return def;
  }
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

std::vector<std::string> arm_labels(Kind kind) {
  switch (kind) {
    case Kind::kUnlockBlind:
    case Kind::kUnlockIds:
      return {"Single id and byte", "Single id, byte plus data length"};
    case Kind::kFeedback:
      return {"feedback weak", "feedback hardened"};
    case Kind::kAttackMatrix: {
      std::vector<std::string> labels;
      for (const acf::attacks::AttackArm& arm : acf::attacks::standard_attack_arms()) {
        labels.push_back(arm.label);
      }
      return labels;
    }
  }
  throw std::logic_error("arm_labels: bad kind");
}

/// The world factory a round runs; `sink` receives the unlock-ids
/// evaluations (the only workload whose evaluations leave the world that
/// way).
acf::fleet::WorldFactory make_factory(Kind kind, acf::metrics::Registry& registry,
                                      acf::ids::EvalSink& sink,
                                      const acf::fleet::TrialPlan& plan) {
  using acf::vehicle::UnlockPredicate;
  switch (kind) {
    case Kind::kUnlockBlind: {
      acf::fleet::UnlockArm weak;
      acf::fleet::UnlockArm hardened;
      hardened.predicate = UnlockPredicate::id_byte_and_length();
      return acf::fleet::unlock_world_factory({weak, hardened}, &registry);
    }
    case Kind::kUnlockIds: {
      std::vector<acf::ids::IdsArm> arms(2);
      arms[1].predicate = UnlockPredicate::id_byte_and_length();
      sink = acf::ids::make_eval_sink(plan);
      return acf::ids::ids_unlock_world_factory(std::move(arms), sink, &registry);
    }
    case Kind::kFeedback: {
      acf::feedback::FeedbackArm weak;
      acf::feedback::FeedbackArm hardened;
      hardened.config.predicate = UnlockPredicate::id_byte_and_length();
      return acf::feedback::feedback_world_factory({weak, hardened}, &registry);
    }
    case Kind::kAttackMatrix:
      return acf::attacks::attack_world_factory(acf::attacks::standard_attack_arms(),
                                                &registry);
  }
  throw std::logic_error("make_factory: bad kind");
}

void write_arm_summary(std::ostream& out, const acf::fleet::FleetReport& report) {
  for (const acf::fleet::ArmReport& arm : report.arms) {
    out << "{\"arm\":\"" << json_escape(arm.label) << "\",\"trials\":" << arm.trials
        << ",\"detected\":" << arm.detected << ",\"timeouts\":" << arm.timeouts
        << ",\"errors\":" << arm.errors << ",\"skipped\":" << arm.skipped
        << ",\"frames_sent\":" << arm.frames_sent
        << ",\"ttf_mean\":" << json_double(arm.time_to_failure.mean())
        << ",\"ttf_median\":" << json_double(arm.median()) << "}\n";
  }
}

/// The per-(arm, detector) matrix, one line per arm and per detector.
void write_ids_matrix(std::ostream& out, const std::vector<acf::ids::ArmIdsReport>& reports) {
  for (const acf::ids::ArmIdsReport& arm : reports) {
    const acf::ids::PipelineCounters& pipe = arm.pipeline;
    out << "{\"arm\":\"" << json_escape(arm.label) << "\",\"trials\":" << arm.trials
        << ",\"attack_frames\":" << arm.attack_frames << ",\"legit_frames\":" << arm.legit_frames
        << ",\"trained\":" << pipe.frames_trained << ",\"scored\":" << pipe.frames_scored
        << ",\"raised\":" << pipe.alerts_raised << ",\"suppressed\":" << pipe.alerts_suppressed
        << ",\"dropped\":" << pipe.alerts_dropped << "}\n";
    for (const acf::ids::ArmIdsReport::PerDetector& det : arm.detectors) {
      out << "{\"arm\":\"" << json_escape(arm.label) << "\",\"detector\":\""
          << json_escape(det.merged.name) << "\",\"threshold\":"
          << json_double(det.merged.threshold) << ",\"tp\":" << det.merged.tp
          << ",\"fp\":" << det.merged.fp << ",\"tn\":" << det.merged.tn
          << ",\"fn\":" << det.merged.fn << ",\"auc\":" << json_double(det.merged.auc())
          << ",\"trials_detected\":" << det.trials_detected << ",\"latency_mean\":"
          << json_double(det.latency.count() > 0 ? det.latency.mean() : -1.0) << "}\n";
    }
  }
}

/// bench_ids_roc's cross-check: two independent tallies of the same frames.
bool ids_identities_hold(const std::vector<acf::ids::ArmIdsReport>& reports,
                         std::string& error) {
  for (const acf::ids::ArmIdsReport& arm : reports) {
    const std::uint64_t labeled = arm.attack_frames + arm.legit_frames;
    std::uint64_t over_threshold = 0;
    for (const acf::ids::ArmIdsReport::PerDetector& det : arm.detectors) {
      over_threshold += det.merged.tp + det.merged.fp;
    }
    const acf::ids::PipelineCounters& pipe = arm.pipeline;
    if (pipe.frames_scored != labeled ||
        pipe.alerts_raised + pipe.alerts_suppressed != over_threshold) {
      error = "arm \"" + arm.label + "\": scored " + std::to_string(pipe.frames_scored) +
              " vs labeled " + std::to_string(labeled) + ", raised+suppressed " +
              std::to_string(pipe.alerts_raised + pipe.alerts_suppressed) + " vs tp+fp " +
              std::to_string(over_threshold);
      return false;
    }
  }
  return true;
}

/// Stands in for a trial's world when only set-up is being timed.
class IdleWorld final : public acf::fleet::World {
 public:
  acf::fuzzer::CampaignResult run() override { return {}; }
};

/// Pool thread ordinals (1-based; 0 is the main thread) in order of first
/// appearance.
std::map<std::thread::id, std::uint32_t> thread_ordinals(std::span<const TrialTiming> timings) {
  std::vector<const TrialTiming*> order;
  for (const TrialTiming& timing : timings) {
    if (timing.recorded()) order.push_back(&timing);
  }
  std::sort(order.begin(), order.end(), [](const TrialTiming* a, const TrialTiming* b) {
    return a->build_start < b->build_start;
  });
  std::map<std::thread::id, std::uint32_t> ordinals;
  for (const TrialTiming* timing : order) {
    ordinals.emplace(timing->thread, static_cast<std::uint32_t>(ordinals.size() + 1));
  }
  return ordinals;
}

void add_trial_spans(SpanLog& log, std::int64_t pool_span, std::span<const TrialTiming> timings) {
  const std::map<std::thread::id, std::uint32_t> ordinals = thread_ordinals(timings);
  for (std::size_t index = 0; index < timings.size(); ++index) {
    const TrialTiming& t = timings[index];
    if (!t.recorded()) continue;
    const std::uint32_t thread = ordinals.at(t.thread);
    const auto trial = static_cast<std::int64_t>(index);
    const std::int64_t parent =
        log.add({"trial", t.build_start, t.teardown_end, pool_span, trial, thread});
    log.add({"build", t.build_start, t.build_end, parent, trial, thread});
    log.add({"run", t.run_start, t.run_end, parent, trial, thread});
    log.add({"teardown", t.teardown_start, t.teardown_end, parent, trial, thread});
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Definition& def : kDefinitions) out.emplace_back(def.name);
    return out;
  }();
  return names;
}

std::size_t Round::failed_trials() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(outcomes.begin(), outcomes.end(),
                    [](const acf::fleet::TrialOutcome& o) { return !o.completed(); }));
}

std::uint64_t Round::counter(std::string_view name) const noexcept {
  for (const acf::metrics::CounterSnap& snap : registry.counters) {
    if (snap.name == name) return snap.value;
  }
  return 0;
}

Workload::Workload(std::string_view name, std::uint64_t seed, std::size_t replicas)
    : name_(definition(name).name),
      kind_(definition(name).kind),
      threads_(definition(name).threads),
      plan_(arm_labels(definition(name).kind),
            replicas > 0 ? replicas : definition(name).replicas, seed,
            definition(name).budget) {}

Round Workload::run_round(unsigned threads, SpanLog* log) const {
  const Kind kind = kind_;
  Round round;
  round.start_ns = now_ns();
  ScopedSpan round_span(log, "round");

  acf::metrics::Registry registry;
  acf::ids::EvalSink sink;
  const acf::fleet::WorldFactory factory = make_factory(kind, registry, sink, plan_);
  round.timings.resize(plan_.trial_count());
  acf::fleet::ExecutorConfig config;
  config.threads = threads;
  config.registry = &registry;
  acf::fleet::Executor executor(config);
  round.threads = executor.effective_threads(plan_.trial_count());
  {
    ScopedSpan pool_span(log, "pool", round_span.index());
    round.pool_start_ns = now_ns();
    round.outcomes = executor.run(plan_, timed_factory(factory, round.timings));
    round.pool_end_ns = now_ns();
    if (log != nullptr) add_trial_spans(*log, pool_span.index(), round.timings);
  }

  const std::int64_t report_start = now_ns();
  {
    ScopedSpan report_span(log, "report", round_span.index());
    std::ostringstream out;
    {
      ScopedSpan span(log, "aggregate", report_span.index());
      write_arm_summary(out, acf::fleet::aggregate(plan_, round.outcomes));
    }
    if (kind == Kind::kUnlockIds || kind == Kind::kAttackMatrix) {
      ScopedSpan span(log, "merge_evals", report_span.index());
      const std::vector<acf::ids::ArmIdsReport> reports =
          kind == Kind::kUnlockIds ? acf::ids::merge_evals(plan_, *sink)
                                   : acf::attacks::merge_outcome_evals(plan_, round.outcomes);
      write_ids_matrix(out, reports);
      round.identities_ok = ids_identities_hold(reports, round.identity_error);
    }
    {
      ScopedSpan span(log, "export", report_span.index());
      acf::fleet::JsonlExporter(out).write_all(plan_, round.outcomes);
    }
    round.output = std::move(out).str();
  }
  round.report_ns = now_ns() - report_start;
  {
    ScopedSpan span(log, "digest", round_span.index());
    round.digest = digest_of(round.output);
  }
  round.registry = registry.snapshot();
  round.end_ns = now_ns();
  return round;
}

std::int64_t Workload::first_trial_start() const {
  acf::metrics::Registry registry;
  acf::ids::EvalSink sink;
  // The factory a round would run is built (that is set-up work) but never
  // called: the probe factory below stops the pool at its first request.
  const acf::fleet::WorldFactory factory = make_factory(kind_, registry, sink, plan_);
  acf::fleet::ExecutorConfig config;
  config.threads = threads_;
  config.registry = &registry;
  acf::fleet::Executor executor(config);
  std::atomic<std::int64_t> first{0};
  const acf::fleet::WorldFactory probe =
      [&first, &executor, &factory](const acf::fleet::TrialSpec&)
      -> std::unique_ptr<acf::fleet::World> {
    std::int64_t unset = 0;
    first.compare_exchange_strong(unset, now_ns());
    executor.cancel();
    (void)factory;
    return std::make_unique<IdleWorld>();
  };
  executor.run(plan_, probe);
  return first.load();
}

}  // namespace perfbench
