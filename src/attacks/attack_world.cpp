#include "attacks/attack_world.hpp"

#include <memory>
#include <stdexcept>
#include <utility>

#include "attacks/scenario.hpp"
#include "dbc/target_vehicle_db.hpp"
#include "ids/detectors.hpp"
#include "ids/eval_codec.hpp"
#include "metrics/metrics.hpp"
#include "obd/obd.hpp"
#include "sim/scheduler.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "vehicle/instrument_cluster.hpp"
#include "vehicle/vehicle.hpp"

namespace acf::attacks {

std::vector<AttackArm> standard_attack_arms() {
  std::vector<AttackArm> arms;
  const auto add = [&arms](std::string label, AttackFamily family, AttackBus bus,
                           std::uint32_t target_id, std::uint32_t period_us,
                           std::uint16_t burst = 1) {
    AttackArm arm;
    arm.label = std::move(label);
    arm.spec.family = family;
    arm.spec.bus = bus;
    arm.spec.target_id = target_id;
    arm.spec.period_us = period_us;
    arm.spec.burst = burst;
    arms.push_back(std::move(arm));
  };
  // One arm per family; ids and cadences match the live target vehicle.
  add("flood", AttackFamily::kFlood, AttackBus::kBody, 0x000, 230);
  add("spoof-rpm", AttackFamily::kSpoof, AttackBus::kPowertrain, dbc::kMsgEngineData,
      2'000);
  add("masquerade-speed", AttackFamily::kMasquerade, AttackBus::kPowertrain,
      dbc::kMsgVehicleSpeed, 20'000);
  add("replay-unlock", AttackFamily::kReplay, AttackBus::kBody, dbc::kMsgBodyCommand,
      50'000);
  add("suspend-abs", AttackFamily::kSuspension, AttackBus::kPowertrain,
      dbc::kMsgWheelSpeeds, 20'000);
  add("busoff-engine", AttackFamily::kBusOff, AttackBus::kPowertrain, dbc::kMsgEngineData,
      5'000, 4);
  add("gateway-probe", AttackFamily::kGatewayProbe, AttackBus::kBody, 0x000,
      10'000);
  add("uds-session", AttackFamily::kUdsSession, AttackBus::kBody, dbc::kUdsBcmRequest,
      20'000);
  add("obd-scan", AttackFamily::kObdScan, AttackBus::kPowertrain,
      obd::kObdFunctionalRequest, 20'000);
  add("xcp-tamper", AttackFamily::kXcpTamper, AttackBus::kBody,
      vehicle::InstrumentCluster::kXcpRxId, 10'000);
  return arms;
}

AttackTrialResult run_attack_trial(const AttackArm& arm, const fleet::TrialSpec& spec,
                                   metrics::Registry* registry, bool capture_observed) {
  sim::Scheduler scheduler{256};
  vehicle::Vehicle car(scheduler);

  ids::Pipeline pipeline;
  auto detectors = arm.detectors
                       ? arm.detectors()
                       : ids::standard_detectors(dbc::target_vehicle_database());
  for (auto& detector : detectors) pipeline.add(std::move(detector));
  can::VirtualBus& observed = observed_bus(arm.spec) == AttackBus::kPowertrain
                                  ? car.powertrain_bus()
                                  : car.body_bus();
  pipeline.attach(observed, "ids-tap");
  ids::PipelineEvaluator evaluator(pipeline);

  std::unique_ptr<trace::CaptureTap> tap;
  if (capture_observed) tap = std::make_unique<trace::CaptureTap>(observed, "golden-tap");

  transport::VirtualBusTransport powertrain_node(car.powertrain_bus(), "attacker-pt");
  transport::VirtualBusTransport body_node(car.body_bus(), "attacker-body");
  ids::LabelingTransport powertrain(powertrain_node, evaluator.labeler());
  ids::LabelingTransport body(body_node, evaluator.labeler());

  util::Rng rng(spec.seed);
  AttackContext ctx{scheduler, car, powertrain, body, rng};
  std::unique_ptr<AttackScenario> scenario = make_scenario(arm.spec);
  scenario->prepare(ctx);

  // Benign script: a legitimate unlock/lock exchange inside the training
  // window — allowlist material for the event ids, capture material for the
  // replay family.
  scheduler.schedule_after(arm.train_window / 4,
                           [&car] { car.head_unit().request_unlock(); });
  scheduler.schedule_after(arm.train_window * 11 / 20,
                           [&car] { car.head_unit().request_lock(); });

  pipeline.begin_training();
  scheduler.run_for(arm.train_window);
  pipeline.begin_detection();

  const sim::SimTime attack_start = scheduler.now();
  scenario->arm(ctx);
  const sim::Duration attack_window =
      spec.sim_budget.count() > 0 ? spec.sim_budget : arm.attack_window;
  scheduler.run_for(attack_window);
  scenario->disarm(ctx);

  AttackTrialResult out;
  out.attack_start = attack_start;
  out.result.frames_sent = powertrain.stats().frames_sent + body.stats().frames_sent;
  out.result.send_failures =
      powertrain.stats().send_failures + body.stats().send_failures;
  out.result.elapsed = scheduler.now();
  out.result.reason = fuzzer::StopReason::kDurationElapsed;

  const auto record = [&](oracle::Observation observation) {
    fuzzer::Finding finding;
    finding.observation = std::move(observation);
    finding.frames_sent = out.result.frames_sent;
    finding.generator = std::string("attack:") + to_string(arm.spec.family);
    finding.seed = spec.seed;
    out.result.findings.push_back(std::move(finding));
  };
  if (auto impact = scenario->impact(ctx)) record(std::move(*impact));

  out.eval = evaluator.take();
  out.eval.pipeline = pipeline.counters();

  // The evaluation leaves the trial as digest findings: nominal-verdict
  // lines that survive the JSONL export and the remote wire byte-for-byte.
  record({oracle::Verdict::kNominal, ids::encode_eval_totals(out.eval), scheduler.now()});
  for (const ids::DetectorEval& detector : out.eval.detectors) {
    record({oracle::Verdict::kNominal, ids::encode_detector_eval(detector),
            scheduler.now()});
  }

  if (registry) {
    scheduler.publish_metrics(*registry);
    car.powertrain_bus().publish_metrics(*registry);
    car.body_bus().publish_metrics(*registry);
    registry->absorb(pipeline.registry().snapshot());
    for (const ids::DetectorEval& detector : out.eval.detectors) {
      if (detector.detection_latency >= 0.0) {
        registry->timer("ids.latency." + detector.name).record(detector.detection_latency);
      }
    }
  }
  if (tap) out.observed = tap->frames();
  return out;
}

fleet::WorldFactory attack_world_factory(std::vector<AttackArm> arms,
                                         metrics::Registry* registry) {
  if (arms.empty()) throw std::invalid_argument("attack_world_factory: no arms");
  auto shared = std::make_shared<const std::vector<AttackArm>>(std::move(arms));
  return fleet::world_from([shared, registry](const fleet::TrialSpec& spec) {
    return run_attack_trial(shared->at(spec.arm), spec, registry).result;
  });
}

std::vector<ids::ArmIdsReport> merge_outcome_evals(
    const fleet::TrialPlan& plan, std::span<const fleet::TrialOutcome> outcomes) {
  std::vector<ids::TrialEval> evals(plan.trial_count());
  for (const fleet::TrialOutcome& outcome : outcomes) {
    if (!outcome.completed()) continue;
    if (outcome.spec.trial_index >= evals.size()) continue;
    ids::TrialEval& eval = evals[outcome.spec.trial_index];
    for (const std::string& line : outcome.findings) {
      ids::decode_eval_line(line, eval);
    }
  }
  return ids::merge_evals(plan, evals);
}

}  // namespace acf::attacks
