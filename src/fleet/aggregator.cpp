#include "fleet/aggregator.hpp"

#include <algorithm>

#include "analysis/report.hpp"

namespace acf::fleet {

double ArmReport::median() const {
  if (median_cached) return cached_median;
  return util::median(samples);
}

void ArmReport::finalize_median() {
  cached_median = util::median_in_place(samples);
  median_cached = true;
}

Aggregator::Aggregator(const TrialPlan& plan) {
  report_.arms.resize(plan.arm_count());
  for (std::size_t arm = 0; arm < plan.arm_count(); ++arm) {
    report_.arms[arm].label = plan.arm_label(arm);
  }
}

void Aggregator::add(const TrialOutcome& outcome) {
  ArmReport& arm = report_.arms.at(outcome.spec.arm);
  ++arm.trials;
  ++report_.trials;
  arm.frames_sent += outcome.frames_sent;
  report_.frames_sent += outcome.frames_sent;
  switch (outcome.status) {
    case TrialStatus::kSkipped:
      ++arm.skipped;
      ++report_.skipped;
      return;
    case TrialStatus::kFailed:
      ++arm.errors;
      ++report_.errors;
      return;
    case TrialStatus::kCompleted:
      break;
  }
  if (outcome.failure_detected()) {
    ++arm.detected;
    arm.median_cached = false;  // sample set is about to change
    // One-sample accumulator merged in, exercising the same parallel-Welford
    // combine a sharded reduction would use.
    util::RunningStats sample;
    sample.add(outcome.time_to_failure);
    arm.time_to_failure.merge(sample);
    arm.samples.push_back(outcome.time_to_failure);
  } else {
    ++arm.timeouts;
  }
  for (const std::string& summary : outcome.findings) {
    auto it = std::find_if(arm.findings.begin(), arm.findings.end(),
                           [&](const auto& entry) { return entry.first == summary; });
    if (it == arm.findings.end()) {
      arm.findings.emplace_back(summary, 1);
    } else {
      ++it->second;
    }
  }
}

void Aggregator::add_all(std::span<const TrialOutcome> outcomes) {
  for (const TrialOutcome& outcome : outcomes) add(outcome);
}

FleetReport aggregate(const TrialPlan& plan, std::span<const TrialOutcome> outcomes) {
  Aggregator aggregator(plan);
  aggregator.add_all(outcomes);
  FleetReport report = aggregator.report();
  for (ArmReport& arm : report.arms) arm.finalize_median();
  return report;
}

std::string arm_table(const FleetReport& report) {
  analysis::TextTable table({"Arm", "n", "Detected", "Timeout", "Error", "Mean (s)",
                             "95% CI (s)", "Median (s)"});
  for (const ArmReport& arm : report.arms) {
    const util::Interval ci = arm.ci95();
    table.add_row({arm.label, std::to_string(arm.trials), std::to_string(arm.detected),
                   std::to_string(arm.timeouts), std::to_string(arm.errors),
                   analysis::format_number(arm.time_to_failure.mean(), 1),
                   "[" + analysis::format_number(ci.lo, 1) + ", " +
                       analysis::format_number(ci.hi, 1) + "]",
                   analysis::format_number(arm.median(), 1)});
  }
  return table.to_string();
}

}  // namespace acf::fleet
