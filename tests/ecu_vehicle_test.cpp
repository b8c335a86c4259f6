#include <gtest/gtest.h>

#include "sim/scheduler.hpp"
#include "trace/capture.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "vehicle/vehicle.hpp"

namespace acf::vehicle {
namespace {

using dbc::kCmdLock;
using dbc::kCmdUnlock;
using dbc::kMsgBodyAck;
using dbc::kMsgBodyCommand;
using dbc::kMsgEngineData;

// --------------------------------------------------------------- Ecu ------

class ProbeEcu final : public ecu::Ecu {
 public:
  ProbeEcu(sim::Scheduler& scheduler, can::VirtualBus& bus) : Ecu(scheduler, bus, "probe") {
    add_periodic(std::chrono::milliseconds(10),
                 [this]() -> std::optional<can::CanFrame> {
                   ++produced;
                   return can::CanFrame::data_std(0x111, {0x42});
                 });
  }
  void trigger_crash() { crash("test-induced"); }
  void reset() {
    factory_reset();
    produced = 0;
    received = 0;
  }
  using Ecu::send;

  int produced = 0;
  int received = 0;

 private:
  void handle_frame(const can::CanFrame&, sim::SimTime) override { ++received; }
};

class EcuTest : public ::testing::Test {
 protected:
  sim::Scheduler scheduler;
  can::VirtualBus bus{scheduler};
};

TEST_F(EcuTest, PeriodicTransmissionWhilePowered) {
  ProbeEcu ecu(scheduler, bus);
  trace::CaptureTap tap(bus, "tap");
  scheduler.run_for(std::chrono::milliseconds(105));
  EXPECT_EQ(tap.size(), 10u);
}

TEST_F(EcuTest, PowerOffSilencesAndPowerOnRestores) {
  ProbeEcu ecu(scheduler, bus);
  trace::CaptureTap tap(bus, "tap");
  ecu.power_off();
  scheduler.run_for(std::chrono::milliseconds(100));
  EXPECT_EQ(tap.size(), 0u);
  EXPECT_FALSE(ecu.powered());
  ecu.power_on();
  scheduler.run_for(std::chrono::milliseconds(105));
  EXPECT_EQ(tap.size(), 10u);
}

TEST_F(EcuTest, CrashSilencesUntilPowerCycle) {
  ProbeEcu ecu(scheduler, bus);
  trace::CaptureTap tap(bus, "tap");
  transport::VirtualBusTransport other(bus, "other");
  ecu.trigger_crash();
  EXPECT_TRUE(ecu.crashed());
  EXPECT_EQ(ecu.crash_reason(), "test-induced");
  EXPECT_EQ(ecu.crash_count(), 1u);
  scheduler.run_for(std::chrono::milliseconds(50));
  EXPECT_EQ(tap.size(), 0u);  // no heartbeat: the crash-oracle observable
  other.send(can::CanFrame::data_std(0x222, {}));
  scheduler.run_for(std::chrono::milliseconds(10));
  EXPECT_EQ(ecu.received, 0);  // no reception either
  ecu.power_cycle(std::chrono::milliseconds(20));
  scheduler.run_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(ecu.crashed());
  EXPECT_GT(tap.size(), 0u);
}

TEST_F(EcuTest, FactoryResetClearsWhatAPowerCycleKeeps) {
  ProbeEcu ecu(scheduler, bus);
  trace::CaptureTap tap(bus, "tap");
  scheduler.run_for(std::chrono::milliseconds(25));
  ecu.dtcs().raise(0x123456, "test DTC");
  ecu.trigger_crash();
  ecu.power_off();
  scheduler.reset();
  bus.reset();
  ecu.reset();
  tap.reset();
  EXPECT_TRUE(ecu.powered());
  EXPECT_TRUE(bus.powered(ecu.node_id()));
  EXPECT_FALSE(ecu.crashed());
  EXPECT_EQ(ecu.crash_count(), 0u);
  EXPECT_EQ(ecu.dtcs().count(), 0u);
  // The periodic is armed again, once.
  scheduler.run_for(std::chrono::milliseconds(105));
  EXPECT_EQ(tap.size(), 10u);
  EXPECT_EQ(ecu.produced, 10);
}

TEST_F(EcuTest, SendRejectedWhenCrashedOrOff) {
  ProbeEcu ecu(scheduler, bus);
  EXPECT_TRUE(ecu.send(can::CanFrame::data_std(0x1, {})));
  ecu.trigger_crash();
  EXPECT_FALSE(ecu.send(can::CanFrame::data_std(0x1, {})));
  ecu.power_off();
  EXPECT_FALSE(ecu.send(can::CanFrame::data_std(0x1, {})));
}

TEST(DtcStore, RaiseQueryAndMil) {
  ecu::DtcStore store;
  EXPECT_FALSE(store.mil_requested());
  store.raise(0x9A0200, "display fault");
  EXPECT_TRUE(store.has(0x9A0200));
  EXPECT_TRUE(store.mil_requested());
  EXPECT_EQ(store.count(), 1u);
  store.raise(0x9A0200, "again");  // refresh, not duplicate
  EXPECT_EQ(store.count(), 1u);
  store.raise(0x123456, "pending only", /*confirmed=*/false);
  EXPECT_EQ(store.count(), 2u);
  const auto bytes = store.to_uds_bytes();
  ASSERT_EQ(bytes.size(), 8u);
  EXPECT_EQ(bytes[0], 0x9A);
  EXPECT_EQ(bytes[1], 0x02);
  EXPECT_EQ(bytes[2], 0x00);
  store.clear_all();
  EXPECT_FALSE(store.mil_requested());
}

// ------------------------------------------------------------ engine ------

TEST(EngineEcu, IdlesAroundTargetRpm) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  EngineEcu engine(scheduler, bus);
  scheduler.run_for(std::chrono::seconds(5));
  EXPECT_GT(engine.rpm(), 600.0);
  EXPECT_LT(engine.rpm(), 1100.0);
  EXPECT_LT(engine.speed_kph(), 1.0);
}

TEST(EngineEcu, DriveCycleReachesCruise) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  EngineEcu engine(scheduler, bus);
  scheduler.run_for(std::chrono::seconds(45));  // into the cruise phase
  EXPECT_GT(engine.rpm(), 1500.0);
  EXPECT_GT(engine.speed_kph(), 30.0);
}

TEST(EngineEcu, BroadcastsDecodableSignals) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  EngineEcu engine(scheduler, bus);
  trace::CaptureTap tap(bus, "tap");
  scheduler.run_for(std::chrono::seconds(1));
  const dbc::Database db = dbc::target_vehicle_database();
  int engine_frames = 0;
  for (const auto& entry : tap.frames()) {
    if (entry.frame.id() != kMsgEngineData) continue;
    ++engine_frames;
    const auto values = db.by_id(kMsgEngineData)->decode(entry.frame);
    EXPECT_GT(values.at("EngineRPM"), 0.0);
    EXPECT_EQ(values.at("EngineRunning"), 1.0);
  }
  EXPECT_NEAR(engine_frames, 100, 5);  // 10 ms period over 1 s
}

TEST(EngineEcu, ImplausibleWheelSpeedDisturbsIdle) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  EngineEcu engine(scheduler, bus);
  transport::VirtualBusTransport attacker(bus, "attacker");
  scheduler.run_for(std::chrono::seconds(5));
  const double calm = engine.idle_roughness();
  // Spoof wheel speeds of ~160 km/h into an idling car, repeatedly.
  const dbc::Database db = dbc::target_vehicle_database();
  const auto spoof = db.by_id(dbc::kMsgWheelSpeeds)
                         ->encode({{"WheelFL", 160.0}, {"WheelFR", 160.0}});
  for (int i = 0; i < 50; ++i) {
    attacker.send(*spoof);
    scheduler.run_for(std::chrono::milliseconds(20));
  }
  EXPECT_GT(engine.implausible_inputs_seen(), 0u);
  EXPECT_GT(engine.idle_roughness(), calm * 3);  // erratic idle
  EXPECT_TRUE(engine.dtcs().mil_requested());
}

// ----------------------------------------------------------- cluster ------

class ClusterTest : public ::testing::Test {
 protected:
  sim::Scheduler scheduler;
  can::VirtualBus bus{scheduler};
  InstrumentCluster cluster{scheduler, bus};
  transport::VirtualBusTransport sender{bus, "sender"};
  dbc::Database db = dbc::target_vehicle_database();

  void send_and_run(const can::CanFrame& frame) {
    sender.send(frame);
    scheduler.run_for(std::chrono::milliseconds(2));
  }
};

TEST_F(ClusterTest, DisplaysRpmFromEngineData) {
  send_and_run(*db.by_id(kMsgEngineData)->encode({{"EngineRPM", 2500.0}}));
  EXPECT_DOUBLE_EQ(cluster.rpm_gauge(), 2500.0);
  EXPECT_FALSE(cluster.mil_on());
}

TEST_F(ClusterTest, DisplaysNegativeRpmUnfiltered) {
  // Fig. 8: the gauge renders physically invalid values as-is.
  send_and_run(*db.by_id(kMsgEngineData)->encode({{"EngineRPM", -1234.0}}));
  EXPECT_DOUBLE_EQ(cluster.rpm_gauge(), -1234.0);
  EXPECT_TRUE(cluster.mil_on());  // but the plausibility DTC fires
  EXPECT_GT(cluster.implausible_values_seen(), 0u);
  EXPECT_GT(cluster.warning_sounds(), 0u);
}

TEST_F(ClusterTest, NeedleTravelAccumulates) {
  send_and_run(*db.by_id(kMsgEngineData)->encode({{"EngineRPM", 1000.0}}));
  send_and_run(*db.by_id(kMsgEngineData)->encode({{"EngineRPM", 3000.0}}));
  send_and_run(*db.by_id(kMsgEngineData)->encode({{"EngineRPM", 500.0}}));
  EXPECT_GE(cluster.needle_travel(), 1000.0 + 2000.0 + 2500.0);
}

TEST_F(ClusterTest, TelltalesDriveWarnings) {
  send_and_run(*db.by_id(dbc::kMsgTelltales)->encode({{"MilOn", 1.0}, {"DtcCount", 2.0}}));
  EXPECT_TRUE(cluster.mil_on());
  EXPECT_TRUE(cluster.any_warning_lit());
  EXPECT_EQ(cluster.warning_sounds(), 1u);
}

TEST_F(ClusterTest, OdometerDisplay) {
  send_and_run(*db.by_id(dbc::kMsgClusterDisplay)
                    ->encode({{"DisplayMode", 0.0}, {"OdometerKm", 18204.0}}));
  EXPECT_EQ(cluster.display_text(), "18204");
}

TEST_F(ClusterTest, FactoryTestModeInBoundsIsHarmless) {
  send_and_run(*can::CanFrame::data(dbc::kMsgClusterDisplay, {0xF2, 0x0A}));
  EXPECT_EQ(cluster.display_text(), "test10");
  EXPECT_FALSE(cluster.crash_latched());
}

TEST_F(ClusterTest, FactoryTestOverrunLatchesCrash) {
  // mode >= 0xF0 with (arg & 0x1F) >= 16: the injected defect.
  send_and_run(*can::CanFrame::data(dbc::kMsgClusterDisplay, {0xF7, 0x1A}));
  EXPECT_TRUE(cluster.crash_latched());
  EXPECT_TRUE(cluster.crashed());
  EXPECT_EQ(cluster.display_text(), "CrAsH");
  EXPECT_TRUE(cluster.dtcs().has(0x9A0200));
}

TEST_F(ClusterTest, CrashLatchSurvivesPowerCycleMilsClear) {
  send_and_run(*db.by_id(dbc::kMsgTelltales)->encode({{"MilOn", 1.0}}));
  send_and_run(*can::CanFrame::data(dbc::kMsgClusterDisplay, {0xFF, 0x1F}));
  ASSERT_TRUE(cluster.crash_latched());
  cluster.power_cycle(std::chrono::milliseconds(10));
  scheduler.run_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(cluster.mil_on());              // MILs clear on power cycle...
  EXPECT_TRUE(cluster.crash_latched());        // ...the crash does not (Fig. 9)
  EXPECT_EQ(cluster.display_text(), "CrAsH");
  // And display commands no longer change the text.
  send_and_run(*db.by_id(dbc::kMsgClusterDisplay)
                    ->encode({{"DisplayMode", 0.0}, {"OdometerKm", 1.0}}));
  EXPECT_EQ(cluster.display_text(), "CrAsH");
}

TEST_F(ClusterTest, ShortDisplayFrameIgnoredByFactoryHandler) {
  send_and_run(*can::CanFrame::data(dbc::kMsgClusterDisplay, {0xF7}));
  EXPECT_FALSE(cluster.crash_latched());
}

// -------------------------------------------------------------- BCM -------

class BcmTest : public ::testing::Test {
 protected:
  sim::Scheduler scheduler;
  can::VirtualBus bus{scheduler};
};

TEST_F(BcmTest, LegitimateUnlockFrameActuates) {
  BodyControlModule bcm(scheduler, bus, UnlockPredicate::single_id_and_byte());
  transport::VirtualBusTransport app(bus, "app");
  std::vector<can::CanFrame> acks;
  app.set_rx_callback([&](const can::CanFrame& f, sim::SimTime) {
    if (f.id() == kMsgBodyAck) acks.push_back(f);
  });
  EXPECT_FALSE(bcm.unlocked());
  app.send(*can::CanFrame::data(kMsgBodyCommand, {kCmdUnlock, 0x5F, 0x01, 0x00, 1, 0x20, 0}));
  scheduler.run_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(bcm.unlocked());
  EXPECT_TRUE(bcm.lock_led_on());
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].payload()[0], kCmdUnlock);
  app.send(*can::CanFrame::data(kMsgBodyCommand, {kCmdLock, 0x5F, 0x01, 0x00, 2, 0x20, 0}));
  scheduler.run_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(bcm.unlocked());
  EXPECT_EQ(bcm.unlock_events(), 1u);
  EXPECT_EQ(bcm.lock_events(), 1u);
}

TEST_F(BcmTest, WeakPredicateAcceptsAnyLengthAndTail) {
  BodyControlModule bcm(scheduler, bus, UnlockPredicate::single_id_and_byte());
  transport::VirtualBusTransport attacker(bus, "attacker");
  // A 1-byte frame with just the command byte is enough.
  attacker.send(*can::CanFrame::data(kMsgBodyCommand, {kCmdUnlock}));
  scheduler.run_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(bcm.unlocked());
}

TEST_F(BcmTest, LengthCheckedPredicateRejectsWrongDlc) {
  BodyControlModule bcm(scheduler, bus, UnlockPredicate::id_byte_and_length());
  transport::VirtualBusTransport attacker(bus, "attacker");
  attacker.send(*can::CanFrame::data(kMsgBodyCommand, {kCmdUnlock}));  // dlc 1
  attacker.send(*can::CanFrame::data(kMsgBodyCommand,
                                     {kCmdUnlock, 1, 2, 3, 4, 5, 6, 7}));  // dlc 8
  scheduler.run_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(bcm.unlocked());
  EXPECT_EQ(bcm.rejected_commands(), 2u);
  attacker.send(*can::CanFrame::data(kMsgBodyCommand, {kCmdUnlock, 9, 9, 9, 9, 9, 9}));  // dlc 7
  scheduler.run_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(bcm.unlocked());  // only byte 0 checked beyond the DLC
}

TEST_F(BcmTest, MultiBytePredicateChecksPrefix) {
  BodyControlModule bcm(scheduler, bus, UnlockPredicate{3, true});
  transport::VirtualBusTransport attacker(bus, "attacker");
  attacker.send(*can::CanFrame::data(kMsgBodyCommand, {kCmdUnlock, 0x5F, 0x02, 0, 0, 0, 0}));
  scheduler.run_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(bcm.unlocked());  // byte 2 wrong
  attacker.send(*can::CanFrame::data(kMsgBodyCommand, {kCmdUnlock, 0x5F, 0x01, 0, 0, 0, 0}));
  scheduler.run_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(bcm.unlocked());
}

TEST_F(BcmTest, OtherIdsIgnored) {
  BodyControlModule bcm(scheduler, bus);
  transport::VirtualBusTransport attacker(bus, "attacker");
  attacker.send(*can::CanFrame::data(0x214, {kCmdUnlock}));
  attacker.send(*can::CanFrame::data(0x216, {kCmdUnlock}));
  scheduler.run_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(bcm.unlocked());
  EXPECT_EQ(bcm.rejected_commands(), 0u);  // not even treated as commands
}

TEST_F(BcmTest, BroadcastsDoorStatus) {
  BodyControlModule bcm(scheduler, bus);
  trace::CaptureTap tap(bus, "tap");
  scheduler.run_for(std::chrono::milliseconds(500));
  int door_status = 0;
  for (const auto& entry : tap.frames()) {
    if (entry.frame.id() == dbc::kMsgDoorStatus) ++door_status;
  }
  EXPECT_NEAR(door_status, 5, 1);
}

// -------------------------------------------------------- head unit -------

TEST(HeadUnit, AppCommandsActuateBcm) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  UnlockTestbench bench(scheduler, UnlockPredicate{4, true});
  bench.head_unit().request_unlock();
  scheduler.run_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(bench.bcm().unlocked());
  EXPECT_EQ(bench.head_unit().acks_seen(), 1u);
  EXPECT_EQ(bench.head_unit().last_acked_command(), kCmdUnlock);
  bench.head_unit().request_lock();
  scheduler.run_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(bench.bcm().unlocked());
  EXPECT_EQ(bench.head_unit().acks_seen(), 2u);
}

TEST(UnlockTestbench, ResetRunsAsANewTestbench) {
  // The authenticated rig, so the head unit's signer and the BCM's verifier
  // carry counters too.  The drive spans three rounds of the BCM's 100 ms
  // periodics, which the reset must re-arm in construction order.
  const auto drive = [](sim::Scheduler& scheduler, UnlockTestbench& bench) {
    bench.head_unit().request_unlock();
    scheduler.run_for(std::chrono::milliseconds(150));
    bench.head_unit().request_lock();
    scheduler.run_for(std::chrono::milliseconds(200));
  };
  sim::Scheduler scheduler;
  UnlockTestbench reused(scheduler, UnlockPredicate::authenticated());
  trace::CaptureTap reused_tap(reused.bus());
  drive(scheduler, reused);
  scheduler.reset();
  reused.reset();
  reused_tap.reset();
  EXPECT_FALSE(reused.bcm().unlocked());
  EXPECT_EQ(reused.head_unit().acks_seen(), 0u);
  drive(scheduler, reused);

  sim::Scheduler fresh_scheduler;
  UnlockTestbench fresh(fresh_scheduler, UnlockPredicate::authenticated());
  trace::CaptureTap fresh_tap(fresh.bus());
  drive(fresh_scheduler, fresh);

  const auto& got = reused_tap.frames();
  const auto& want = fresh_tap.frames();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].frame, want[i].frame) << i;
    EXPECT_EQ(got[i].time, want[i].time) << i;
  }
  EXPECT_EQ(reused.bcm().unlock_events(), 1u);
  EXPECT_EQ(reused.bcm().lock_events(), 1u);
  EXPECT_EQ(reused.bcm().verifier()->stats().accepted, 2u);
  EXPECT_EQ(reused.head_unit().acks_seen(), fresh.head_unit().acks_seen());
  EXPECT_EQ(scheduler.executed_events(), fresh_scheduler.executed_events());
}

// ----------------------------------------------------------- gateway ------

TEST(Gateway, WhitelistForwardsClusterFeedOnly) {
  sim::Scheduler scheduler;
  can::VirtualBus powertrain(scheduler);
  can::VirtualBus body(scheduler);
  GatewayEcu gateway(powertrain, body, GatewayEcu::default_powertrain_to_body(),
                     GatewayEcu::default_body_to_powertrain());
  trace::CaptureTap body_tap(body, "body-tap");
  trace::CaptureTap pt_tap(powertrain, "pt-tap");
  transport::VirtualBusTransport pt_node(powertrain, "ecm");
  transport::VirtualBusTransport body_node(body, "ivi");

  pt_node.send(*can::CanFrame::data(kMsgEngineData, {1, 2}));   // whitelisted
  pt_node.send(*can::CanFrame::data(0x666, {3}));               // not whitelisted
  body_node.send(*can::CanFrame::data(kMsgBodyCommand, {kCmdUnlock}));  // body-local
  body_node.send(*can::CanFrame::data(dbc::kUdsEngineRequest, {0x02, 0x10, 0x01}));
  scheduler.run_for(std::chrono::milliseconds(10));

  // Body bus sees: forwarded engine data + its own two local frames.
  ASSERT_EQ(body_tap.size(), 3u);
  bool engine_seen = false;
  for (const auto& e : body_tap.frames()) {
    if (e.frame.id() == kMsgEngineData) engine_seen = true;
    EXPECT_NE(e.frame.id(), 0x666u);
  }
  EXPECT_TRUE(engine_seen);
  // Powertrain sees its own two frames + the forwarded UDS request only.
  ASSERT_EQ(pt_tap.size(), 3u);
  EXPECT_EQ(gateway.stats().forwarded_p_to_b, 1u);
  EXPECT_EQ(gateway.stats().blocked_p_to_b, 1u);
  EXPECT_EQ(gateway.stats().forwarded_b_to_p, 1u);
  EXPECT_EQ(gateway.stats().blocked_b_to_p, 1u);
}

TEST(Gateway, ForwardAllMode) {
  sim::Scheduler scheduler;
  can::VirtualBus powertrain(scheduler);
  can::VirtualBus body(scheduler);
  GatewayEcu gateway(powertrain, body, ForwardRule{true, {}}, ForwardRule{true, {}});
  trace::CaptureTap pt_tap(powertrain, "pt-tap");
  transport::VirtualBusTransport body_node(body, "attacker");
  body_node.send(*can::CanFrame::data(0x666, {0xEE}));
  scheduler.run_for(std::chrono::milliseconds(10));
  ASSERT_EQ(pt_tap.size(), 1u);
  EXPECT_EQ(pt_tap.frames()[0].frame.id(), 0x666u);
}

TEST(Gateway, EmptyWhitelistBlocksEverything) {
  sim::Scheduler scheduler;
  can::VirtualBus powertrain(scheduler);
  can::VirtualBus body(scheduler);
  GatewayEcu gateway(powertrain, body, ForwardRule{}, ForwardRule{});
  trace::CaptureTap body_tap(body, "tap");
  transport::VirtualBusTransport pt_node(powertrain, "ecm");
  pt_node.send(*can::CanFrame::data(kMsgEngineData, {1}));
  scheduler.run_for(std::chrono::milliseconds(10));
  EXPECT_EQ(body_tap.size(), 0u);
  EXPECT_EQ(gateway.stats().blocked_p_to_b, 1u);
}

// ------------------------------------------------------------ vehicle -----

TEST(Vehicle, ClusterTracksEngineThroughGateway) {
  sim::Scheduler scheduler;
  Vehicle car(scheduler);
  scheduler.run_for(std::chrono::seconds(45));  // cruise phase
  EXPECT_GT(car.engine().rpm(), 1500.0);
  // The cluster (body bus) tracks the engine (powertrain bus) via the
  // gateway within one broadcast period.
  EXPECT_NEAR(car.cluster().rpm_gauge(), car.engine().rpm(), 150.0);
  EXPECT_NEAR(car.cluster().speed_gauge(), car.engine().speed_kph(), 5.0);
  EXPECT_FALSE(car.cluster().mil_on());
}

TEST(Vehicle, UnfilteredGatewayExposesPowertrain) {
  sim::Scheduler scheduler;
  VehicleConfig config;
  config.gateway_filtering = false;
  Vehicle car(scheduler, config);
  transport::VirtualBusTransport obd(car.body_bus(), "obd");
  scheduler.run_for(std::chrono::seconds(3));
  const double calm = car.engine().idle_roughness();
  const dbc::Database db = dbc::target_vehicle_database();
  const auto spoof = db.by_id(dbc::kMsgWheelSpeeds)
                         ->encode({{"WheelFL", 200.0}, {"WheelFR", 200.0}});
  for (int i = 0; i < 50; ++i) {
    obd.send(*spoof);
    scheduler.run_for(std::chrono::milliseconds(20));
  }
  // Without filtering, body-bus injection reaches the engine.
  EXPECT_GT(car.engine().implausible_inputs_seen(), 0u);
  EXPECT_GT(car.engine().idle_roughness(), calm);
}

TEST(Vehicle, FilteredGatewayShieldsPowertrain) {
  sim::Scheduler scheduler;
  Vehicle car(scheduler);  // filtering on by default
  transport::VirtualBusTransport obd(car.body_bus(), "obd");
  scheduler.run_for(std::chrono::seconds(3));
  const dbc::Database db = dbc::target_vehicle_database();
  const auto spoof = db.by_id(dbc::kMsgWheelSpeeds)
                         ->encode({{"WheelFL", 200.0}, {"WheelFR", 200.0}});
  for (int i = 0; i < 50; ++i) {
    obd.send(*spoof);
    scheduler.run_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(car.engine().implausible_inputs_seen(), 0u);
}

}  // namespace
}  // namespace acf::vehicle
