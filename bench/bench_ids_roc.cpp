// IDS evaluation: per-detector precision/recall/F1, ROC sweep, AUC and mean
// detection latency for the four standard detectors watching the Table V
// unlock world — the defense-side complement of bench_table5_unlock.  Runs
// on the fleet orchestrator with ground-truth frame labeling at the source
// (every fuzzer-injected frame is noted at send time), so the confusion
// counts are exact, not heuristic.
//
// `--jsonl PATH` exports one line per (arm, detector) with the merged
// metrics and the ROC curve; the export is byte-identical at any --threads
// for a given seed (slot-per-trial evaluation sink, merged in trial-index
// order).
//
// A second section reproduces the Fig. 4 / Fig. 5 contrast as a detector
// property: the entropy detector trained on captured vehicle traffic must
// separate a held-out clean window from fuzz traffic with AUC > 0.9 (the
// bench exits non-zero if it does not).
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "attacks/attack_world.hpp"
#include "bench_util.hpp"
#include "ids/detectors.hpp"
#include "ids/ids_world.hpp"
#include "trace/capture.hpp"

namespace {

std::string num(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.9g", value);
  return buffer;
}

/// One line per (arm, detector).  When `families` is non-null (the attack
/// matrix) its entries run parallel to `reports` and each line carries the
/// attack family next to the arm label.
void write_jsonl(std::ostream& out, const std::vector<acf::ids::ArmIdsReport>& reports,
                 const std::vector<std::string>* families = nullptr) {
  using acf::ids::RocPoint;
  for (std::size_t arm_index = 0; arm_index < reports.size(); ++arm_index) {
    const acf::ids::ArmIdsReport& arm = reports[arm_index];
    for (const acf::ids::ArmIdsReport::PerDetector& det : arm.detectors) {
      const acf::util::Interval rate = det.detection_rate_ci(arm.trials);
      out << "{\"arm\":\"" << arm.label << "\",";
      if (families != nullptr) out << "\"family\":\"" << (*families)[arm_index] << "\",";
      out << "\"detector\":\"" << det.merged.name
          << "\",\"threshold\":" << num(det.merged.threshold) << ",\"tp\":" << det.merged.tp
          << ",\"fp\":" << det.merged.fp << ",\"tn\":" << det.merged.tn
          << ",\"fn\":" << det.merged.fn << ",\"precision\":" << num(det.merged.precision())
          << ",\"recall\":" << num(det.merged.recall()) << ",\"f1\":" << num(det.merged.f1())
          << ",\"fpr\":" << num(det.merged.false_positive_rate())
          << ",\"auc\":" << num(det.merged.auc()) << ",\"mean_latency_s\":";
      if (det.latency.count() > 0) {
        out << num(det.latency.mean());
      } else {
        out << "null";
      }
      out << ",\"trials_detected\":" << det.trials_detected << ",\"trials\":" << arm.trials
          << ",\"rate_ci\":[" << num(rate.lo) << ',' << num(rate.hi) << "],\"roc\":[";
      const std::vector<RocPoint> roc = det.merged.roc(11);
      for (std::size_t i = 0; i < roc.size(); ++i) {
        if (i) out << ',';
        out << "{\"t\":" << num(roc[i].threshold) << ",\"tpr\":" << num(roc[i].tpr)
            << ",\"fpr\":" << num(roc[i].fpr) << '}';
      }
      out << "]}\n";
    }
  }
}

void print_reports(const std::vector<acf::ids::ArmIdsReport>& reports) {
  using namespace acf;
  for (const ids::ArmIdsReport& arm : reports) {
    std::printf("Arm \"%s\": %zu trials, %llu attack / %llu legitimate frames scored\n",
                arm.label.c_str(), arm.trials,
                static_cast<unsigned long long>(arm.attack_frames),
                static_cast<unsigned long long>(arm.legit_frames));
    analysis::TextTable table({"Detector", "Thresh", "Prec", "Recall", "F1", "FPR", "AUC",
                               "Latency (s)", "Detected", "Rate 95% CI"});
    for (const ids::ArmIdsReport::PerDetector& det : arm.detectors) {
      const util::Interval rate = det.detection_rate_ci(arm.trials);
      table.add_row(
          {det.merged.name, analysis::format_number(det.merged.threshold, 2),
           analysis::format_number(det.merged.precision(), 3),
           analysis::format_number(det.merged.recall(), 3),
           analysis::format_number(det.merged.f1(), 3),
           analysis::format_number(det.merged.false_positive_rate(), 4),
           analysis::format_number(det.merged.auc(), 3),
           det.latency.count() > 0 ? analysis::format_number(det.latency.mean(), 3) : "-",
           std::to_string(det.trials_detected) + "/" + std::to_string(arm.trials),
           "[" + analysis::format_number(rate.lo, 2) + ", " +
               analysis::format_number(rate.hi, 2) + "]"});
    }
    std::printf("%s\n", table.to_string().c_str());

    std::printf("ROC sweep (threshold: TPR/FPR):\n");
    for (const ids::ArmIdsReport::PerDetector& det : arm.detectors) {
      std::printf("  %-10s", det.merged.name.c_str());
      for (const ids::RocPoint& point : det.merged.roc(6)) {
        std::printf("  %.1f: %.2f/%.3f", point.threshold, point.tpr, point.fpr);
      }
      std::printf("\n");
    }
    std::printf("\n");
  }
}

/// Pipeline registry counters vs the evaluator's ground-truth tallies: two
/// independent paths over the same frames, so every scored frame must be
/// labeled and every over-threshold score must raise or suppress an alert.
/// Drift between them means one side miscounted — fail the bench.
bool counters_cross_check(const std::vector<acf::ids::ArmIdsReport>& reports) {
  using namespace acf;
  bool counters_ok = true;
  for (const ids::ArmIdsReport& arm : reports) {
    const std::uint64_t labeled = arm.attack_frames + arm.legit_frames;
    std::uint64_t over_threshold = 0;
    for (const ids::ArmIdsReport::PerDetector& det : arm.detectors) {
      over_threshold += det.merged.tp + det.merged.fp;
    }
    const ids::PipelineCounters& pipe = arm.pipeline;
    if (pipe.frames_scored != labeled ||
        pipe.alerts_raised + pipe.alerts_suppressed != over_threshold) {
      std::fprintf(stderr,
                   "FAIL arm \"%s\": pipeline counters disagree with evaluator "
                   "(scored %llu vs labeled %llu; raised+suppressed %llu vs "
                   "tp+fp %llu)\n",
                   arm.label.c_str(),
                   static_cast<unsigned long long>(pipe.frames_scored),
                   static_cast<unsigned long long>(labeled),
                   static_cast<unsigned long long>(pipe.alerts_raised +
                                                   pipe.alerts_suppressed),
                   static_cast<unsigned long long>(over_threshold));
      counters_ok = false;
    }
  }
  std::printf(
      "pipeline/evaluator cross-check (scored==labeled, raised+suppressed==tp+fp): %s\n",
      counters_ok ? "[ok]" : "[FAIL]");
  return counters_ok;
}

/// One evaluation campaign: the fleet report and the per-(arm, detector)
/// evaluation, plus each arm's attack family for the --attacks matrix.
struct Evaluation {
  acf::fleet::FleetReport fleet;
  std::vector<acf::ids::ArmIdsReport> reports;
  std::vector<std::string> families;
};

/// --attacks: the per-(attack, detector) evaluation matrix over the full
/// scenario catalog.  Each trial ships its evaluation back as digest
/// findings, merged here from the outcomes.
Evaluation evaluate_attacks(const acf::bench::FleetArgs& args, char** argv) {
  using namespace acf;
  const std::vector<attacks::AttackArm> arms = attacks::standard_attack_arms();
  std::vector<std::string> labels;
  Evaluation result;
  for (const attacks::AttackArm& arm : arms) {
    labels.push_back(arm.label);
    result.families.push_back(attacks::to_string(arm.spec.family));
  }
  fleet::TrialPlan plan(labels, static_cast<std::size_t>(args.runs), args.seed);
  const auto outcomes = fleet::run_campaign(
      plan,
      [&arms](metrics::Registry* registry) {
        return attacks::attack_world_factory(arms, registry);
      },
      "ids-roc-attacks", args.campaign, argv);
  bench::header("IDS evaluation: attack catalog",
                "Per-(attack, detector) matrix over the scenario families (" +
                    std::to_string(args.runs) + " trials per arm)");
  result.fleet = fleet::aggregate(plan, outcomes);
  result.reports = attacks::merge_outcome_evals(plan, outcomes);
  return result;
}

/// The Table V unlock world behind the four standard detectors.  With
/// --metrics-out the final snapshot's ids.latency.* timers show the
/// per-detector detection-latency quantiles next to the fleet totals.
Evaluation evaluate_unlock(const acf::bench::FleetArgs& args, char** argv) {
  using namespace acf;
  std::vector<ids::IdsArm> arms(2);
  arms[1].predicate = vehicle::UnlockPredicate::id_byte_and_length();
  fleet::TrialPlan plan({"Single id and byte", "Single id, byte plus data length"},
                        static_cast<std::size_t>(args.runs), args.seed);
  ids::EvalSink sink = ids::make_eval_sink(plan);
  const auto outcomes = fleet::run_campaign(
      plan,
      [&arms, &sink](metrics::Registry* registry) {
        return ids::ids_unlock_world_factory(arms, sink, registry);
      },
      "ids-roc", args.campaign, argv);
  bench::header("IDS evaluation",
                "Detector precision/recall/ROC on the Table V unlock world (" +
                    std::to_string(args.runs) + " runs per arm, 1 ms tx period)");
  return {fleet::aggregate(plan, outcomes), ids::merge_evals(plan, *sink), {}};
}

/// Fig. 4 vs Fig. 5 as a detector property: train on the first half of a
/// captured drive, score the held-out half against targeted fuzz frames.
double entropy_capture_vs_fuzz_auc() {
  using namespace acf;
  sim::Scheduler scheduler;
  vehicle::Vehicle car(scheduler);
  trace::CaptureTap tap(car.powertrain_bus(), "tap");
  scheduler.run_for(std::chrono::seconds(30));
  const auto& frames = tap.frames();

  ids::EntropyDetector detector;
  const std::size_t half = frames.size() / 2;
  std::vector<std::uint32_t> seen_ids;
  for (std::size_t i = 0; i < half; ++i) {
    detector.train(frames[i].frame, frames[i].time);
    if (std::find(seen_ids.begin(), seen_ids.end(), frames[i].frame.id()) == seen_ids.end()) {
      seen_ids.push_back(frames[i].frame.id());
    }
  }
  detector.finalize_training();

  ids::DetectorEval eval;
  for (std::size_t i = half; i < frames.size(); ++i) {
    ++eval.legit_bins[ids::DetectorEval::bin_of(
        detector.score(frames[i].frame, frames[i].time))];
  }
  fuzzer::RandomGenerator generator(fuzzer::FuzzConfig::targeted(seen_ids));
  for (int i = 0; i < 4000; ++i) {
    const sim::SimTime when = std::chrono::seconds(60) + i * std::chrono::milliseconds(1);
    ++eval.attack_bins[ids::DetectorEval::bin_of(detector.score(*generator.next(), when))];
  }
  return eval.auc();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace acf;
  // In-process only (no --distributed): the unlock mode collects through an
  // in-memory ids::EvalSink.  --attacks evaluates the attack-scenario
  // catalog (one arm per family) instead of the Table V unlock world.
  std::string jsonl_path;
  bool attacks = false;
  const bench::FleetArgs args = bench::parse_fleet_args(
      argc, argv, 8, {{"--jsonl", &jsonl_path}, {"--attacks", nullptr, &attacks}},
      /*distributable=*/false);
  const Evaluation result = attacks ? evaluate_attacks(args, argv) : evaluate_unlock(args, argv);

  std::printf(attacks ? "Attack impact (kFailure findings -> detected / time-to-failure):\n"
                      : "Unlock times (the attack these detectors watch):\n");
  std::printf("%s\n", fleet::arm_table(result.fleet).c_str());
  print_reports(result.reports);

  if (!jsonl_path.empty()) {
    std::ofstream out(jsonl_path);
    write_jsonl(out, result.reports, attacks ? &result.families : nullptr);
    std::printf("wrote %s (byte-identical at any --threads for a given --seed)\n\n",
                jsonl_path.c_str());
  }

  const bool counters_ok = counters_cross_check(result.reports);
  if (attacks) return counters_ok && result.fleet.errors == 0 ? 0 : 1;

  const double auc = entropy_capture_vs_fuzz_auc();
  std::printf("Entropy detector, captured (Fig. 4) vs fuzz (Fig. 5) traffic: AUC %.3f  %s\n",
              auc, auc > 0.9 ? "[ok: > 0.9]" : "[FAIL: expected > 0.9]");
  return (auc > 0.9 && counters_ok) ? 0 : 1;
}
