#include <gtest/gtest.h>

#include "attacks/attacks.hpp"
#include "sim/scheduler.hpp"
#include "trace/capture.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "vehicle/vehicle.hpp"

namespace acf::attacks {
namespace {

TEST(DosFlood, StarvesLowerPriorityTraffic) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  // Victim: periodic sender at 10 ms.
  transport::VirtualBusTransport victim(bus, "victim");
  int victim_sent = 0;
  scheduler.schedule_every(std::chrono::milliseconds(10), [&] {
    if (victim.send(can::CanFrame::data_std(0x400, {1, 2, 3, 4}))) ++victim_sent;
  });
  trace::CaptureTap tap(bus, "tap");
  scheduler.run_for(std::chrono::seconds(1));
  const std::size_t baseline = tap.size();
  EXPECT_NEAR(static_cast<double>(baseline), 100.0, 3.0);

  transport::VirtualBusTransport attacker(bus, "attacker");
  DosFlood flood(scheduler, attacker);
  const sim::Duration busy_before = bus.stats().busy_time;
  flood.start();
  scheduler.run_for(std::chrono::seconds(1));
  flood.stop();

  // The flood dominates the bus: load near 100 % *during the flood window*,
  // victim frames delayed or dropped from its small queue.
  const double flood_load = sim::to_seconds(bus.stats().busy_time - busy_before);
  EXPECT_GT(flood_load, 0.8);
  std::size_t victim_delivered = 0;
  for (const auto& entry : tap.frames()) {
    if (entry.time > std::chrono::seconds(1) && entry.frame.id() == 0x400) {
      ++victim_delivered;
    }
  }
  // With id 0x000 frames saturating arbitration, the victim gets at most a
  // trickle (its queue drains only in flood gaps).
  EXPECT_LT(victim_delivered, 100u);
  EXPECT_GT(flood.frames_sent(), 3000u);
}

TEST(DosFlood, StartStopIdempotent) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  transport::VirtualBusTransport attacker(bus, "attacker");
  DosFlood flood(scheduler, attacker);
  flood.start();
  flood.start();  // no double-arm
  EXPECT_TRUE(flood.running());
  scheduler.run_for(std::chrono::milliseconds(10));
  flood.stop();
  const auto sent = flood.frames_sent();
  scheduler.run_for(std::chrono::milliseconds(50));
  EXPECT_EQ(flood.frames_sent(), sent);
}

TEST(SpoofAttack, OutpacesLegitimateSender) {
  // Spoof RPM=0 at 2 ms against the ECM's 10 ms cadence: the cluster gauge
  // spends most of its time on the forged value.
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  vehicle::EngineEcu engine(scheduler, bus);
  vehicle::InstrumentCluster cluster(scheduler, bus);
  scheduler.run_for(std::chrono::seconds(2));
  EXPECT_GT(cluster.rpm_gauge(), 500.0);

  transport::VirtualBusTransport attacker(bus, "attacker");
  const dbc::Database db = dbc::target_vehicle_database();
  const auto forged = db.by_id(dbc::kMsgEngineData)->encode({{"EngineRPM", 0.0}});
  SpoofAttack spoof(scheduler, attacker, *forged, std::chrono::milliseconds(2));
  spoof.start();

  // Sample the gauge between legit frames: mostly the forged zero.
  int zero_samples = 0;
  const int samples = 100;
  for (int i = 0; i < samples; ++i) {
    scheduler.run_for(std::chrono::milliseconds(2));
    if (cluster.rpm_gauge() < 100.0) ++zero_samples;
  }
  spoof.stop();
  EXPECT_GT(zero_samples, samples / 2);
  EXPECT_GT(spoof.frames_sent(), 90u);
}

TEST(ReplayAttack, CapturedUnlockReplaysAgainstWeakBcm) {
  // Hoppe & Dittman's replay (paper ref [10]) against the testbench: record
  // the legitimate unlock, re-inject it later.
  sim::Scheduler scheduler;
  vehicle::UnlockTestbench bench(scheduler);  // weak predicate, no auth
  transport::VirtualBusTransport attacker(bench.bus(), "attacker");
  ReplayAttack replay(scheduler, bench.bus(), attacker,
                      can::FilterBank{can::IdMaskFilter::exact(dbc::kMsgBodyCommand)});

  replay.record_for(std::chrono::milliseconds(100));
  bench.head_unit().request_unlock();
  scheduler.run_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(replay.recording());
  ASSERT_EQ(replay.recorded_frames(), 1u);

  bench.bcm().force_lock();
  ASSERT_FALSE(bench.bcm().unlocked());
  ASSERT_TRUE(replay.replay());
  scheduler.run_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(bench.bcm().unlocked());
  EXPECT_EQ(replay.frames_replayed(), 1u);
}

TEST(ReplayAttack, NothingRecordedNothingReplayed) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  transport::VirtualBusTransport attacker(bus, "attacker");
  ReplayAttack replay(scheduler, bus, attacker);
  EXPECT_FALSE(replay.replay());
}

TEST(DosFlood, FloodResumesAfterBusOffRecovery) {
  // Fault confinement applies to the attacker too.  A babbling flood whose
  // TEC passes 255 falls silent: not one frame while bus-off (it used to keep
  // calling send(), inflating frames_sent with frames fault confinement
  // could never put on the wire).  After the standard recovery window
  // (128 x 11 recessive bit times, 2.816 ms at 500 kb/s) it re-joins and
  // picks back up.
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  transport::VirtualBusTransport attacker(bus, "attacker");
  DosFlood flood(scheduler, attacker);
  flood.start();
  scheduler.run_for(std::chrono::milliseconds(50));
  EXPECT_GT(flood.frames_sent(), 0u);
  EXPECT_EQ(flood.ticks_silenced(), 0u);

  // The next 32 transmission attempts fail at +8 TEC each.
  bus.force_tx_errors(attacker.node_id(), 32);
  ASSERT_TRUE(scheduler.run_until_condition([&] { return attacker.error_state().bus_off(); },
                                            scheduler.now() + std::chrono::milliseconds(20)));
  const std::uint64_t sent_at_bus_off = flood.frames_sent();
  ASSERT_TRUE(scheduler.run_until_condition([&] { return !attacker.error_state().bus_off(); },
                                            scheduler.now() + std::chrono::milliseconds(5)));
  EXPECT_EQ(flood.frames_sent(), sent_at_bus_off);  // not one frame while off
  // About 12 ticks of the 230 us default period fall inside the window.
  EXPECT_GE(flood.ticks_silenced(), 10u);

  scheduler.run_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(attacker.error_state().bus_off());
  EXPECT_GT(flood.frames_sent(), sent_at_bus_off);
  flood.stop();
}

TEST(XcpTamper, ExtinguishesTheMilRemotely) {
  // The paper's warning made concrete: the XCP channel added for test
  // monitoring lets an attacker clear the warning lamp that fuzzing lit.
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  vehicle::InstrumentCluster cluster(scheduler, bus);
  transport::VirtualBusTransport sender(bus, "sender");
  const dbc::Database db = dbc::target_vehicle_database();
  sender.send(*db.by_id(dbc::kMsgEngineData)->encode({{"EngineRPM", -500.0}}));
  scheduler.run_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(cluster.mil_on());

  transport::VirtualBusTransport attacker(bus, "attacker");
  XcpTamper tamper(scheduler, attacker, vehicle::InstrumentCluster::kXcpRxId,
                   vehicle::InstrumentCluster::kXcpTxId);
  const std::uint8_t douse[1] = {0x00};
  EXPECT_TRUE(tamper.overwrite(vehicle::InstrumentCluster::kXcpAddrFlags, douse));
  EXPECT_FALSE(cluster.mil_on());
}

TEST(XcpTamper, PeeksInternalState) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  vehicle::InstrumentCluster cluster(scheduler, bus);
  transport::VirtualBusTransport sender(bus, "sender");
  const dbc::Database db = dbc::target_vehicle_database();
  sender.send(*db.by_id(dbc::kMsgEngineData)->encode({{"EngineRPM", 3123.0}}));
  scheduler.run_for(std::chrono::milliseconds(5));

  transport::VirtualBusTransport attacker(bus, "attacker");
  XcpTamper tamper(scheduler, attacker, vehicle::InstrumentCluster::kXcpRxId,
                   vehicle::InstrumentCluster::kXcpTxId);
  const auto bytes = tamper.peek(vehicle::InstrumentCluster::kXcpAddrRpm, 4);
  ASSERT_TRUE(bytes.has_value());
  const auto value = xcp::XcpMaster::as_u32(bytes);
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(*value, 3123u);
  EXPECT_TRUE(tamper.peek(0xFFFF0000, 4) == std::nullopt);
}

TEST(XcpTamper, ReadOnlyAddressesRejectWrites) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  vehicle::InstrumentCluster cluster(scheduler, bus);
  transport::VirtualBusTransport attacker(bus, "attacker");
  XcpTamper tamper(scheduler, attacker, vehicle::InstrumentCluster::kXcpRxId,
                   vehicle::InstrumentCluster::kXcpTxId);
  const std::uint8_t data[2] = {0xAA, 0xBB};
  EXPECT_FALSE(tamper.overwrite(vehicle::InstrumentCluster::kXcpAddrRpm, data));
}

}  // namespace
}  // namespace acf::attacks
