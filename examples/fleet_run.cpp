// fleet_run: CLI driver for the fleet orchestrator.  Shards N replicas of
// the paper's Table V unlock trial (both predicates) across a worker pool,
// prints per-arm mean / 95% CI / median, and optionally exports the full
// per-trial trajectory as JSONL.  Same seed + same runs => byte-identical
// statistics and JSONL at any --threads value.
//
// In-process:    fleet_run --runs 50 --threads 8 --seed 0xACF --jsonl t.jsonl
// Distributed:   fleet_run --runs 50 --serve 0 --workers 3 --jsonl t.jsonl
//   (the coordinator forks 3 worker processes of this same binary; statistics
//    and JSONL come out byte-identical to the in-process run)
// Hand-rolled:   fleet_run --runs 50 --serve 4710   on one terminal, then
//                fleet_run --runs 50 --connect 127.0.0.1:4710   on others —
//   every process must be given the same campaign flags (--runs/--seed/
//   --budget-hours/--fast-world); the handshake fingerprint rejects drift.
//   Forked workers get exactly that: the coordinator's own command line plus
//   --connect (fleet::run_campaign, src/fleet/runner.hpp).
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analysis/report.hpp"
#include "attacks/attack_world.hpp"
#include "feedback/worlds.hpp"
#include "fleet/aggregator.hpp"
#include "fleet/jsonl.hpp"
#include "fleet/runner.hpp"
#include "fleet/worlds.hpp"
#include "util/cli.hpp"

using namespace acf;

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--runs N] [--threads T] [--seed S] [--budget-hours H]\n"
               "          [--jsonl PATH|-] [--fast-world] [--attacks]\n"
               "          [--feedback [--corpus-dir DIR]]\n"
               "          [--serve PORT [--workers K]] [--connect HOST:PORT]\n"
               "          [--checkpoint PATH] [--stop-after N] [--kill-worker-after N]\n"
               "          [--metrics-out PATH] [--metrics-interval N]\n"
               "  --runs N         replicas per arm (default 12)\n"
               "  --threads T      worker threads (default: hardware concurrency)\n"
               "  --seed S         base seed; trial seeds derive via SplitMix64\n"
               "  --budget-hours H per-trial simulated-time budget (default 24; not with\n"
               "                   --fast-world or --attacks, which carry their own)\n"
               "  --jsonl PATH     write one JSON object per trial (- = stdout)\n"
               "  --fast-world     reduced-window unlock world (CI / smoke scale)\n"
               "  --attacks        attack-scenario catalog: one arm per family, IDS\n"
               "                   pipeline on the observed bus, per-(attack, detector)\n"
               "                   evaluation matrix in the report\n"
               "  --feedback       coverage-guided campaigns: novelty-map feedback\n"
               "                   drives the mutator (weak + hardened predicate arms)\n"
               "  --corpus-dir D   with --feedback: seed every trial from D/seed.corpus\n"
               "                   (if present) and write each trial's final corpus to\n"
               "                   D/trial-<index>.corpus\n"
               "  --serve PORT     run as campaign coordinator (0 = ephemeral port)\n"
               "  --workers K      with --serve: fork K worker processes of this binary\n"
               "  --connect H:P    run as campaign worker against a coordinator\n"
               "  --checkpoint P   coordinator: persist progress; resume if P exists\n"
               "                   (exit 1 before any trial if P cannot be written)\n"
               "  --stop-after N   coordinator with --checkpoint: save and exit after N\n"
               "                   trials (exit 1 if the checkpoint cannot be written)\n"
               "  --kill-worker-after N  SIGKILL the first forked worker after N\n"
               "                   completions (crash-tolerance smoke)\n"
               "  --metrics-out P  stream acf-metrics-v1 JSONL snapshots to P (- = stderr);\n"
               "                   the final line carries the campaign totals\n"
               "  --metrics-interval N  snapshot line every N completed trials\n"
               "                   (default 10; 0 = final line only)\n",
               argv0);
}

/// Parses all of `text` as a number in [min, max] (util::parse_number);
/// anything else exits 2.
std::uint64_t number(const char* argv0, const char* text, std::uint64_t min, std::uint64_t max) {
  const std::optional<std::uint64_t> value = util::parse_number(text, min, max);
  if (!value) {
    usage(argv0);
    std::exit(2);
  }
  return *value;
}

struct Options {
  std::size_t runs = 12;
  std::uint64_t seed = 0xACF17EE7ULL;
  long budget_hours = 24;
  bool budget_set = false;
  const char* jsonl_path = nullptr;
  bool fast_world = false;
  bool attacks = false;
  bool feedback = false;
  std::string corpus_dir;
  fleet::CampaignOptions campaign;
};

struct Campaign {
  fleet::TrialPlan plan;
  fleet::FactoryBuilder make_factory;
  std::string world_tag;
};

/// Every process — in-process driver, coordinator, worker — rebuilds the
/// identical campaign from its own flags; only the fingerprint crosses the
/// wire.
Campaign build_campaign(const Options& options) {
  if (options.attacks) {
    // The scenario catalog: one arm per attack family against the full
    // vehicle, each trial shipping its IDS evaluation back as digest
    // findings, so the merged matrix is identical in-process and remote.
    std::vector<attacks::AttackArm> arms = attacks::standard_attack_arms();
    std::vector<std::string> labels;
    for (const attacks::AttackArm& arm : arms) labels.push_back(arm.label);
    return {fleet::TrialPlan(labels, options.runs, options.seed),
            [arms = std::move(arms)](metrics::Registry* registry) {
              return attacks::attack_world_factory(arms, registry);
            },
            "attacks"};
  }
  if (options.feedback) {
    // Coverage-guided campaigns on the unlock testbench: same two predicate
    // arms as the blind-random default, but each trial is one complete
    // feedback loop (novelty map -> corpus -> sequence mutator).
    feedback::FeedbackArm weak;  // predicate defaults to single_id_and_byte
    feedback::FeedbackArm hardened;
    hardened.config.predicate = vehicle::UnlockPredicate::id_byte_and_length();
    return {fleet::TrialPlan({"feedback weak", "feedback hardened"}, options.runs,
                             options.seed, std::chrono::hours(options.budget_hours)),
            [weak, hardened, dir = options.corpus_dir](metrics::Registry* registry) {
              return feedback::feedback_world_factory({weak, hardened}, registry, dir);
            },
            "unlock-feedback"};
  }
  if (options.fast_world) {
    fuzzer::FuzzConfig fast = fuzzer::FuzzConfig::around_id(0x215, 3);
    fast.tx_period = std::chrono::microseconds(250);
    return {fleet::TrialPlan({"weak", "hardened"}, options.runs, options.seed),
            [fast](metrics::Registry* registry) {
              return fleet::unlock_world_factory(
                  {{vehicle::UnlockPredicate::single_id_and_byte(), fast,
                    std::chrono::minutes(5)},
                   {vehicle::UnlockPredicate::id_byte_and_length(), fast,
                    std::chrono::minutes(5)}},
                  registry);
            },
            "unlock-fast"};
  }
  return {fleet::TrialPlan({"Single id and byte", "Single id, byte plus data length"},
                           options.runs, options.seed,
                           std::chrono::hours(options.budget_hours)),
          [](metrics::Registry* registry) {
            return fleet::unlock_world_factory({{vehicle::UnlockPredicate::single_id_and_byte()},
                                                {vehicle::UnlockPredicate::id_byte_and_length()}},
                                               registry);
          },
          "unlock"};
}

int report_and_export(const Campaign& campaign, const std::vector<fleet::TrialOutcome>& outcomes,
                      const Options& options) {
  const fleet::FleetReport report = fleet::aggregate(campaign.plan, outcomes);

  std::printf("%s\n", fleet::arm_table(report).c_str());
  std::printf("total frames sent: %llu across %zu trials (%zu errors)\n",
              static_cast<unsigned long long>(report.frames_sent), report.trials,
              report.errors);

  if (campaign.world_tag == "attacks") {
    // Per-(attack, detector) matrix, rebuilt from the outcomes' digest
    // findings — the same numbers whether the outcomes came from the local
    // executor or from remote workers.
    const std::vector<ids::ArmIdsReport> evals =
        attacks::merge_outcome_evals(campaign.plan, outcomes);
    for (const ids::ArmIdsReport& arm : evals) {
      std::printf("Attack \"%s\": %zu trials, %llu attack / %llu legitimate frames\n",
                  arm.label.c_str(), arm.trials,
                  static_cast<unsigned long long>(arm.attack_frames),
                  static_cast<unsigned long long>(arm.legit_frames));
      analysis::TextTable matrix(
          {"Detector", "Prec", "Recall", "F1", "FPR", "AUC", "Detected"});
      for (const ids::ArmIdsReport::PerDetector& det : arm.detectors) {
        matrix.add_row({det.merged.name, analysis::format_number(det.merged.precision(), 3),
                        analysis::format_number(det.merged.recall(), 3),
                        analysis::format_number(det.merged.f1(), 3),
                        analysis::format_number(det.merged.false_positive_rate(), 4),
                        analysis::format_number(det.merged.auc(), 3),
                        std::to_string(det.trials_detected) + "/" +
                            std::to_string(arm.trials)});
      }
      std::printf("%s\n", matrix.to_string().c_str());
    }
  }

  if (options.jsonl_path) {
    if (std::strcmp(options.jsonl_path, "-") == 0) {
      fleet::JsonlExporter(std::cout).write_all(campaign.plan, outcomes);
    } else {
      std::ofstream file(options.jsonl_path);
      if (!file) {
        std::fprintf(stderr, "fleet_run: cannot open %s\n", options.jsonl_path);
        return 1;
      }
      fleet::JsonlExporter(file).write_all(campaign.plan, outcomes);
      std::printf("wrote %zu trial records to %s\n", outcomes.size(), options.jsonl_path);
    }
  }
  return report.errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  fleet::CampaignOptions& campaign = options.campaign;
  for (int i = 1; i < argc; ++i) {
    const auto take = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0) return nullptr;
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    const auto count = [&](const char* text, std::uint64_t min = 0) {
      return static_cast<std::size_t>(number(argv[0], text, min, SIZE_MAX));
    };
    if (const char* runs_arg = take("--runs")) {
      options.runs = count(runs_arg, 1);
    } else if (const char* threads_arg = take("--threads")) {
      campaign.threads = static_cast<unsigned>(number(argv[0], threads_arg, 0, UINT_MAX));
    } else if (const char* seed_arg = take("--seed")) {
      options.seed = number(argv[0], seed_arg, 0, UINT64_MAX);
    } else if (const char* budget_arg = take("--budget-hours")) {
      // At most what a simulated-time budget can hold.
      constexpr auto kMaxHours =
          std::chrono::duration_cast<std::chrono::hours>(sim::Duration::max()).count();
      options.budget_hours = static_cast<long>(
          number(argv[0], budget_arg, 1, static_cast<std::uint64_t>(kMaxHours)));
      options.budget_set = true;
    } else if (const char* jsonl_arg = take("--jsonl")) {
      options.jsonl_path = jsonl_arg;
    } else if (std::strcmp(argv[i], "--fast-world") == 0) {
      options.fast_world = true;
    } else if (std::strcmp(argv[i], "--attacks") == 0) {
      options.attacks = true;
    } else if (std::strcmp(argv[i], "--feedback") == 0) {
      options.feedback = true;
    } else if (const char* corpus_arg = take("--corpus-dir")) {
      options.corpus_dir = corpus_arg;
    } else if (const char* serve_arg = take("--serve")) {
      campaign.serve = true;
      campaign.serve_port = static_cast<std::uint16_t>(number(argv[0], serve_arg, 0, 65535));
    } else if (const char* workers_arg = take("--workers")) {
      campaign.workers = count(workers_arg);
    } else if (const char* connect_arg = take("--connect")) {
      campaign.connect = connect_arg;
    } else if (const char* checkpoint_arg = take("--checkpoint")) {
      campaign.checkpoint_path = checkpoint_arg;
    } else if (const char* stop_arg = take("--stop-after")) {
      campaign.stop_after = count(stop_arg);
    } else if (const char* kill_arg = take("--kill-worker-after")) {
      campaign.kill_worker_after = count(kill_arg);
    } else if (const char* metrics_arg = take("--metrics-out")) {
      campaign.metrics_path = metrics_arg;
    } else if (const char* metrics_interval_arg = take("--metrics-interval")) {
      campaign.metrics_interval = count(metrics_interval_arg);
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  // The fast world and the attack catalog carry no per-trial budget.
  if ((options.budget_set && (options.fast_world || options.attacks)) ||
      (!options.corpus_dir.empty() && !options.feedback) ||
      (options.feedback && options.fast_world) ||
      (options.attacks && (options.feedback || options.fast_world))) {
    usage(argv[0]);
    return 2;
  }
  if (options.fast_world) {
    // Smoke scale: steal from a SIGKILLed worker within a second.
    campaign.lease_ttl = std::chrono::milliseconds(1'000);
    campaign.max_batch = 2;
    campaign.heartbeat_period = std::chrono::milliseconds(200);
  }

  const Campaign built = build_campaign(options);
  const std::vector<fleet::TrialOutcome> outcomes =
      fleet::run_campaign(built.plan, built.make_factory, built.world_tag, campaign, argv);
  // The header waits for the campaign: a refused run prints nothing on
  // stdout, and a forked worker, which exits inside run_campaign, none on
  // the coordinator's stderr.
  std::printf("fleet_run: %zu trials (%zu arms x %zu replicas), seed 0x%llx\n",
              built.plan.trial_count(), built.plan.arm_count(), built.plan.replicas(),
              static_cast<unsigned long long>(options.seed));
  return report_and_export(built, outcomes, options);
}
