// Feedback vs blind random: the closed loop's headline experiment.  Both
// arms attack the paper's unlock testbench (weak "single id and byte"
// predicate, 1 ms transmit period) under the same simulated-time budget:
//
//   - "blind random": the paper's Table V protocol — uniform frames over
//     the full id/payload space until the unlock oracle fires;
//   - "feedback": the coverage-guided loop — novelty-map features from
//     oracle/ECU/bus behaviour select and energise corpus seeds, so the
//     rejected-command counter's gradient walks the mutator onto the
//     0x215 command frame instead of waiting for a 1-in-590k draw.
//
// Blind random's asymptotic mean time-to-unlock is ~590 s of bus time; the
// feedback loop typically lands in seconds.  The report carries Student-t
// 95% confidence intervals from the fleet aggregator, and `--json` emits an
// acf-feedback-bench-v1 document for CI to schema-validate.  Outcomes are
// byte-identical at any `--threads` and under `--distributed`.
#include <set>

#include "bench_util.hpp"
#include "feedback/worlds.hpp"

namespace {

struct ArmDerived {
  double sim_hours = 0.0;
  std::size_t distinct_findings = 0;
  double findings_per_cpu_hour = 0.0;
};

ArmDerived derive(const acf::fleet::ArmReport& arm,
                  const std::vector<acf::fleet::TrialOutcome>& outcomes,
                  std::size_t arm_index) {
  ArmDerived d;
  double sim_seconds = 0.0;
  for (const acf::fleet::TrialOutcome& outcome : outcomes) {
    if (outcome.spec.arm == arm_index) sim_seconds += outcome.sim_seconds;
  }
  d.sim_hours = sim_seconds / 3600.0;
  d.distinct_findings = arm.findings.size();  // aggregator dedups by summary
  if (d.sim_hours > 0.0) {
    d.findings_per_cpu_hour = static_cast<double>(d.distinct_findings) / d.sim_hours;
  }
  return d;
}

void json_arm(std::FILE* out, const acf::fleet::ArmReport& arm, const ArmDerived& d,
              bool last) {
  const acf::util::Interval ci = arm.ci95();
  const bool detected = arm.detected > 0;
  std::fprintf(out,
               "    {\"label\": \"%s\", \"trials\": %zu, \"detected\": %zu,\n"
               "     \"timeouts\": %zu, \"errors\": %zu,\n"
               "     \"mean_ttf_s\": %s, \"ci95_lo_s\": %s, \"ci95_hi_s\": %s,\n"
               "     \"median_ttf_s\": %s, \"sim_hours\": %.6f,\n"
               "     \"distinct_findings\": %zu, \"findings_per_cpu_hour\": %.3f}%s\n",
               arm.label.c_str(), arm.trials, arm.detected, arm.timeouts, arm.errors,
               detected ? std::to_string(arm.time_to_failure.mean()).c_str() : "null",
               detected ? std::to_string(ci.lo).c_str() : "null",
               detected ? std::to_string(ci.hi).c_str() : "null",
               detected ? std::to_string(arm.median()).c_str() : "null", d.sim_hours,
               d.distinct_findings, d.findings_per_cpu_hour, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace acf;

  std::string json_path;
  std::string corpus_dir;
  const bench::FleetArgs args = bench::parse_fleet_args(
      argc, argv, 12, {{"--json", &json_path}, {"--corpus-dir", &corpus_dir}});

  // Both arms under the identical simulated-time budget; blind random's
  // asymptotic mean is ~590 s, so 1200 s leaves it a fair (~87%) chance per
  // trial while keeping the bench minutes-scale at CI run counts.
  const sim::Duration budget = std::chrono::seconds(1200);
  fleet::TrialPlan plan({"blind random", "feedback"},
                        static_cast<std::size_t>(args.runs), args.seed, budget);

  // The combined factory dispatches on the trial's arm: each inner factory
  // indexes arms by spec.arm, so both carry an entry per plan arm.
  const auto make_factory = [&corpus_dir](metrics::Registry* registry) -> fleet::WorldFactory {
    fleet::UnlockArm random_arm;  // weak predicate, full-random space, 1 ms tx
    feedback::FeedbackArm feedback_arm;
    fleet::WorldFactory random_factory =
        fleet::unlock_world_factory({random_arm, random_arm}, registry);
    fleet::WorldFactory feedback_factory =
        feedback::feedback_world_factory({feedback_arm, feedback_arm}, registry, corpus_dir);
    return [random_factory = std::move(random_factory),
            feedback_factory = std::move(feedback_factory)](const fleet::TrialSpec& spec) {
      return spec.arm == 0 ? random_factory(spec) : feedback_factory(spec);
    };
  };

  const std::vector<fleet::TrialOutcome> outcomes =
      fleet::run_campaign(plan, make_factory, "feedback-vs-random", args.campaign, argv);
  bench::header("Feedback loop", "Coverage-guided vs blind random on the unlock testbench (" +
                                     std::to_string(args.runs) + " runs per arm)");
  const fleet::FleetReport report = fleet::aggregate(plan, outcomes);

  std::printf("%s\n", fleet::arm_table(report).c_str());
  const ArmDerived random_d = derive(report.arms[0], outcomes, 0);
  const ArmDerived feedback_d = derive(report.arms[1], outcomes, 1);
  std::printf("distinct findings / sim-CPU-hour: random %.3f (%zu in %.2f h), "
              "feedback %.3f (%zu in %.2f h)\n",
              random_d.findings_per_cpu_hour, random_d.distinct_findings,
              random_d.sim_hours, feedback_d.findings_per_cpu_hour,
              feedback_d.distinct_findings, feedback_d.sim_hours);
  if (report.arms[0].detected > 0 && report.arms[1].detected > 0) {
    std::printf("mean time-to-unlock speedup: x%.1f (random %.1f s -> feedback %.1f s)\n",
                report.arms[0].time_to_failure.mean() /
                    report.arms[1].time_to_failure.mean(),
                report.arms[0].time_to_failure.mean(),
                report.arms[1].time_to_failure.mean());
  }

  if (!json_path.empty()) {
    std::FILE* out = std::fopen(json_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "bench: cannot open %s\n", json_path.c_str());
      return 2;
    }
    std::fprintf(out,
                 "{\n  \"schema\": \"acf-feedback-bench-v1\",\n"
                 "  \"runs_per_arm\": %d,\n  \"sim_budget_s\": %.0f,\n"
                 "  \"seed\": %llu,\n  \"arms\": [\n",
                 args.runs, sim::to_seconds(budget),
                 static_cast<unsigned long long>(args.seed));
    json_arm(out, report.arms[0], random_d, false);
    json_arm(out, report.arms[1], feedback_d, true);
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
  }
  return 0;
}
