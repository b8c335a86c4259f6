// Golden determinism gate for the simulation core.
//
// Records canonical candump traces of two fixed-seed worlds — the Table V
// unlock testbench under 1 kHz fuzz and the full two-bus vehicle under a
// body-bus fuzz — and asserts the core reproduces them BYTE-identically.
// These files were captured from the pre-optimisation scheduler/bus, so any
// refactor of the event core that changes frame content, order or timing by
// a single nanosecond fails here.  A third gate pins the IDS: per-frame
// detector scores and labeler verdicts on 29-bit, CAN FD and remote frames.
// Regenerate deliberately with ACF_REGEN_GOLDEN=1 (only when a semantic
// change is intended and reviewed).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "attacks/attack_world.hpp"
#include "dbc/target_vehicle_db.hpp"
#include "fuzzer/campaign.hpp"
#include "fuzzer/generator.hpp"
#include "ids/detectors.hpp"
#include "ids/evaluation.hpp"
#include "ids/pipeline.hpp"
#include "oracle/vehicle_oracles.hpp"
#include "sim/scheduler.hpp"
#include "trace/candump_log.hpp"
#include "trace/capture.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "vehicle/vehicle.hpp"

#ifndef ACF_GOLDEN_DIR
#error "ACF_GOLDEN_DIR must point at tests/golden"
#endif

namespace acf {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(ACF_GOLDEN_DIR) + "/" + name;
}

/// Byte-compares `actual` against the committed golden file.  With
/// ACF_REGEN_GOLDEN=1 in the environment the file is (re)written instead.
void expect_matches_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (std::getenv("ACF_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path << " (" << actual.size() << " bytes)";
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run once with ACF_REGEN_GOLDEN=1";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string expected = buffer.str();

  if (expected == actual) return;
  // Locate the first divergent line for a readable failure message instead
  // of dumping two multi-kilobyte strings.
  std::istringstream exp_lines(expected), act_lines(actual);
  std::string exp_line, act_line;
  std::size_t line_no = 0;
  while (true) {
    const bool has_exp = static_cast<bool>(std::getline(exp_lines, exp_line));
    const bool has_act = static_cast<bool>(std::getline(act_lines, act_line));
    ++line_no;
    if (!has_exp && !has_act) break;
    if (!has_exp || !has_act || exp_line != act_line) {
      FAIL() << "trace diverges from " << name << " at line " << line_no << "\n  golden: "
             << (has_exp ? exp_line : std::string("<eof>")) << "\n  actual: "
             << (has_act ? act_line : std::string("<eof>"))
             << "\n  (golden " << expected.size() << " bytes, actual " << actual.size()
             << " bytes)";
    }
  }
  FAIL() << "traces differ in byte content but not line content (line endings?)";
}

/// The canonical unlock world: bench-top rig + attacker running blind random
/// fuzz at the paper's 1 ms period, with a trickle of seeded bus corruption
/// so the error-frame / retransmission paths are inside the gate too.
std::string record_unlock_world() {
  sim::Scheduler scheduler;
  can::BusConfig bus_config;
  bus_config.corruption_probability = 0.002;
  bus_config.seed = 0x601D;  // "GOLD"
  vehicle::UnlockTestbench bench(scheduler, vehicle::UnlockPredicate::single_id_and_byte(),
                                 bus_config);
  trace::CaptureTap tap(bench.bus(), "golden-tap");
  transport::VirtualBusTransport attacker(bench.bus(), "attacker");

  oracle::CompositeOracle oracles;
  oracles.add(std::make_unique<oracle::UnlockOracle>(bench.bus(), &bench.bcm()));

  fuzzer::FuzzConfig fuzz = fuzzer::FuzzConfig::full_random(0x5EED0001);
  fuzzer::RandomGenerator generator(fuzz);
  fuzzer::CampaignConfig config;
  config.tx_period = std::chrono::milliseconds(1);
  config.max_duration = std::chrono::seconds(2);
  config.oracle_period = std::chrono::milliseconds(10);
  config.stop_on_failure = false;  // fixed-length trace regardless of findings
  config.record_suspicious = false;
  fuzzer::FuzzCampaign campaign(scheduler, attacker, generator, &oracles, config);
  campaign.run();

  std::ostringstream out;
  trace::write_candump(out, tap.frames(), "can0");
  return out.str();
}

/// The canonical whole-vehicle world: two buses joined by the gateway, every
/// stock ECU ticking, fuzz on the body bus, plus a mid-run power cycle of
/// the instrument cluster to exercise set_power / pending-event paths.
std::string record_vehicle_world() {
  sim::Scheduler scheduler;
  vehicle::VehicleConfig config;
  config.powertrain_bus.corruption_probability = 0.001;
  config.powertrain_bus.seed = 0xBEEF01;
  config.body_bus.corruption_probability = 0.001;
  config.body_bus.seed = 0xBEEF02;
  vehicle::Vehicle car(scheduler, config);
  trace::CaptureTap powertrain_tap(car.powertrain_bus(), "golden-pt");
  trace::CaptureTap body_tap(car.body_bus(), "golden-body");
  transport::VirtualBusTransport attacker(car.body_bus(), "attacker");

  fuzzer::FuzzConfig fuzz = fuzzer::FuzzConfig::full_random(0x5EED0002);
  fuzzer::RandomGenerator generator(fuzz);
  fuzzer::CampaignConfig campaign_config;
  campaign_config.tx_period = std::chrono::milliseconds(1);
  campaign_config.max_duration = std::chrono::milliseconds(1500);
  campaign_config.oracle_period = std::chrono::milliseconds(10);
  campaign_config.stop_on_failure = false;
  campaign_config.record_suspicious = false;
  fuzzer::FuzzCampaign campaign(scheduler, attacker, generator, nullptr, campaign_config);

  scheduler.schedule_at(std::chrono::milliseconds(700), [&car] { car.cluster().power_cycle(); });
  campaign.run();

  std::ostringstream out;
  trace::write_candump(out, powertrain_tap.frames(), "can0");
  trace::write_candump(out, body_tap.frames(), "can1");
  return out.str();
}

TEST(GoldenTrace, UnlockWorldReproducesByteIdentically) {
  expect_matches_golden("unlock_world.candump", record_unlock_world());
}

TEST(GoldenTrace, VehicleWorldReproducesByteIdentically) {
  expect_matches_golden("vehicle_world.candump", record_vehicle_world());
}

TEST(GoldenTrace, UnlockWorldIsRunToRunDeterministic) {
  // Independent of the committed files: two in-process runs must agree,
  // which catches nondeterminism even right after a deliberate regen.
  EXPECT_EQ(record_unlock_world(), record_unlock_world());
}

// ------------------------------------------------------------- ids state -----

/// The frames the IDS world injects once training ends, interleaved
/// round-robin from five sources: extended-format frames on the database's
/// own numeric ids, full-range 29-bit ids, three 29-bit ids that repeat (so
/// their payload windows fill and their alert cooldowns bite), CAN FD
/// payloads of 12..64 bytes on the database's ids, and hand-built remote
/// frames in both formats.  The perfbench digests cover only 11-bit classic
/// traffic, so this is the gate on 29-bit and FD per-id state.
std::vector<can::CanFrame> ids_golden_frames(const dbc::Database& db) {
  fuzzer::FuzzConfig extended_db = fuzzer::FuzzConfig::targeted(db.ids(), 0x601D0001);
  extended_db.extended_ids = true;
  fuzzer::FuzzConfig extended_full = fuzzer::FuzzConfig::full_random(0x601D0002);
  extended_full.id_max = can::kMaxExtendedId;
  extended_full.extended_ids = true;
  fuzzer::FuzzConfig extended_few =
      fuzzer::FuzzConfig::targeted({0x18DAF110, 0x18DB33F1, can::kMaxExtendedId}, 0x601D0003);
  extended_few.extended_ids = true;
  fuzzer::FuzzConfig fd = fuzzer::FuzzConfig::targeted(db.ids(), 0x601D0004);
  fd.fd_mode = true;
  fd.dlc_min = 9;
  fd.dlc_max = 15;
  fuzzer::RandomGenerator generators[] = {
      fuzzer::RandomGenerator(extended_db), fuzzer::RandomGenerator(extended_full),
      fuzzer::RandomGenerator(extended_few), fuzzer::RandomGenerator(fd)};

  const std::vector<std::uint32_t> ids = db.ids();
  std::vector<can::CanFrame> frames;
  for (std::size_t round = 0; round < 48; ++round) {
    for (fuzzer::RandomGenerator& generator : generators) frames.push_back(*generator.next());
    const auto format = round % 2 == 0 ? can::IdFormat::kStandard : can::IdFormat::kExtended;
    frames.push_back(*can::CanFrame::remote(ids[round % ids.size()],
                                            static_cast<std::uint8_t>(round % 9), format));
  }
  return frames;
}

/// The standard detector set on the full vehicle's powertrain bus: 2 s of
/// clean traffic trains it, then an attacker node sends ids_golden_frames at
/// 1 ms.  One line per scored frame (sim ns, frame, the four scores in %a,
/// the labeler's verdict), then every delivered alert and the counters.
std::string record_ids_world() {
  const dbc::Database db = dbc::target_vehicle_database();
  sim::Scheduler scheduler;
  vehicle::Vehicle car(scheduler);
  transport::VirtualBusTransport attacker(car.powertrain_bus(), "attacker");
  ids::Pipeline pipeline;
  for (auto& detector : ids::standard_detectors(db)) pipeline.add(std::move(detector));
  pipeline.attach(car.powertrain_bus(), "golden-ids");

  std::ostringstream out;
  char number[64];
  ids::FrameLabeler labeler;
  pipeline.set_score_hook(
      [&](const can::CanFrame& frame, sim::SimTime time, std::span<const double> scores) {
        out << time.count() << ' ' << frame.to_string();
        for (const double score : scores) {
          std::snprintf(number, sizeof number, " %a", score);
          out << number;
        }
        out << (labeler.consume_if_attack(frame) ? " attack\n" : " legit\n");
      });

  pipeline.begin_training();
  scheduler.run_for(std::chrono::seconds(2));
  pipeline.begin_detection();
  const std::vector<can::CanFrame> frames = ids_golden_frames(db);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    scheduler.schedule_after((i + 1) * std::chrono::milliseconds(1), [&, i] {
      labeler.note_injected(frames[i]);
      attacker.send(frames[i]);
    });
  }
  scheduler.run_for((frames.size() + 20) * std::chrono::milliseconds(1));

  for (const ids::Alert& alert : pipeline.drain_alerts()) {
    std::snprintf(number, sizeof number, "%a", alert.score);
    out << "alert " << alert.detector_name << " id=" << alert.can_id << " score=" << number
        << " t=" << alert.time.count() << '\n';
  }
  const ids::PipelineCounters counters = pipeline.counters();
  out << "trained " << counters.frames_trained << " scored " << counters.frames_scored
      << " raised " << counters.alerts_raised << " suppressed " << counters.alerts_suppressed
      << " dropped " << counters.alerts_dropped << " injected " << labeler.injected()
      << " matched " << labeler.matched() << '\n';
  return out.str();
}

TEST(GoldenTrace, IdsScoresOnExtendedFdAndRemoteFramesReproduce) {
  expect_matches_golden("ids_world.txt", record_ids_world());
}

// ------------------------------------------------- attack scenarios -------

/// Catalog arms shrunk to golden scale: a 1 s benign/training window and a
/// 300 ms attack window keep each pinned trace small while every family
/// still lands its effect.  These windows are part of the golden contract —
/// changing them is a deliberate regen.
std::vector<attacks::AttackArm> golden_attack_arms() {
  std::vector<attacks::AttackArm> arms = attacks::standard_attack_arms();
  for (attacks::AttackArm& arm : arms) {
    arm.train_window = std::chrono::seconds(1);
    arm.attack_window = std::chrono::milliseconds(300);
  }
  return arms;
}

attacks::AttackTrialResult record_attack_trial(const attacks::AttackArm& arm) {
  fleet::TrialSpec spec;
  spec.seed = 0x601D;  // same fixed seed as the other golden worlds
  return attacks::run_attack_trial(arm, spec, nullptr, /*capture_observed=*/true);
}

TEST(GoldenTrace, EveryAttackFamilyReproducesByteIdentically) {
  // One pinned candump per attack family: the observed bus under the
  // benign window plus the armed scenario.  Any change to vehicle traffic,
  // scenario cadence or labeling order shows up as a one-line diff here.
  for (const attacks::AttackArm& arm : golden_attack_arms()) {
    const attacks::AttackTrialResult trial = record_attack_trial(arm);
    ASSERT_FALSE(trial.observed.empty()) << arm.label;
    std::ostringstream out;
    trace::write_candump(out, trial.observed, "can0");
    expect_matches_golden("attacks/" + arm.label + ".candump", out.str());
  }
}

TEST(GoldenTrace, AttackTrialIsRunToRunDeterministic) {
  const std::vector<attacks::AttackArm> arms = golden_attack_arms();
  for (const attacks::AttackArm& arm : {arms[0], arms[5], arms[9]}) {
    const attacks::AttackTrialResult first = record_attack_trial(arm);
    const attacks::AttackTrialResult second = record_attack_trial(arm);
    std::ostringstream a, b;
    trace::write_candump(a, first.observed, "can0");
    trace::write_candump(b, second.observed, "can0");
    EXPECT_EQ(a.str(), b.str()) << arm.label;
  }
}

TEST(GoldenTrace, BenignSegmentsStayZeroFalsePositive) {
  // The training-window traffic of every attack trace is attack-free by
  // construction; the deterministic detectors (allowlist, DLC) trained on
  // its first half must not flag its second half.  A false positive here
  // means the benign script itself drifted into something anomalous, which
  // would silently poison every per-attack FPR in the matrix.
  const dbc::Database db = dbc::target_vehicle_database();
  for (const attacks::AttackArm& arm : golden_attack_arms()) {
    const attacks::AttackTrialResult trial = record_attack_trial(arm);
    std::vector<trace::TimestampedFrame> benign;
    for (const trace::TimestampedFrame& entry : trial.observed) {
      if (entry.time < trial.attack_start) benign.push_back(entry);
    }
    ASSERT_GT(benign.size(), 10u) << arm.label;

    ids::AllowlistDetector allowlist(db);
    ids::DlcConsistencyDetector dlc(db);
    const std::size_t half = benign.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
      allowlist.train(benign[i].frame, benign[i].time);
      dlc.train(benign[i].frame, benign[i].time);
    }
    allowlist.finalize_training();
    dlc.finalize_training();
    for (std::size_t i = half; i < benign.size(); ++i) {
      EXPECT_LT(allowlist.score(benign[i].frame, benign[i].time), allowlist.threshold())
          << arm.label << " frame id 0x" << std::hex << benign[i].frame.id();
      EXPECT_LT(dlc.score(benign[i].frame, benign[i].time), dlc.threshold())
          << arm.label << " frame id 0x" << std::hex << benign[i].frame.id();
    }
  }
}

}  // namespace
}  // namespace acf
