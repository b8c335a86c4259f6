#include <gtest/gtest.h>

#include "oracle/vehicle_oracles.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "vehicle/vehicle.hpp"

namespace acf::oracle {
namespace {

using sim::SimTime;

TEST(Verdict, Names) {
  EXPECT_STREQ(to_string(Verdict::kNominal), "nominal");
  EXPECT_STREQ(to_string(Verdict::kSuspicious), "suspicious");
  EXPECT_STREQ(to_string(Verdict::kFailure), "failure");
}

/// Scriptable oracle for composite tests.
class FakeOracle final : public Oracle {
 public:
  explicit FakeOracle(std::string oracle_name) : name_(std::move(oracle_name)) {}
  std::string_view name() const override { return name_; }
  std::optional<Observation> poll(SimTime now) override {
    ++polls;
    if (!pending.has_value()) return std::nullopt;
    auto out = *pending;
    out.time = now;
    pending.reset();
    return out;
  }
  void reset() override { ++resets; }

  std::string name_;
  std::optional<Observation> pending;
  int polls = 0;
  int resets = 0;
};

TEST(CompositeOracle, ReportsMostSevere) {
  CompositeOracle composite;
  auto a = std::make_unique<FakeOracle>("a");
  auto b = std::make_unique<FakeOracle>("b");
  a->pending = Observation{Verdict::kSuspicious, "meh", {}};
  b->pending = Observation{Verdict::kFailure, "boom", {}};
  composite.add(std::move(a));
  composite.add(std::move(b));
  const auto obs = composite.poll(SimTime{5});
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->verdict, Verdict::kFailure);
  EXPECT_EQ(obs->detail, "boom");
}

TEST(CompositeOracle, NominalWhenAllQuiet) {
  CompositeOracle composite;
  composite.add(std::make_unique<FakeOracle>("a"));
  EXPECT_FALSE(composite.poll(SimTime{1}).has_value());
}

TEST(CompositeOracle, BorrowedOraclesPolledAndReset) {
  CompositeOracle composite;
  FakeOracle borrowed("borrowed");
  composite.add(borrowed);
  composite.poll(SimTime{1});
  composite.reset();
  EXPECT_EQ(borrowed.polls, 1);
  EXPECT_EQ(borrowed.resets, 1);
  EXPECT_EQ(composite.size(), 1u);
}

// ---------------------------------------------------- vehicle oracles -----

TEST(UnlockOracle, DetectsAckFrame) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  UnlockOracle oracle(bus);
  transport::VirtualBusTransport bcm(bus, "bcm");
  EXPECT_FALSE(oracle.poll(scheduler.now()).has_value());
  bcm.send(*can::CanFrame::data(dbc::kMsgBodyAck, {dbc::kCmdUnlock, 0x01}));
  scheduler.run_for(std::chrono::milliseconds(2));
  const auto obs = oracle.poll(scheduler.now());
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->verdict, Verdict::kFailure);
  EXPECT_TRUE(oracle.unlock_detected());
  EXPECT_GT(oracle.unlock_time().count(), 0);
}

TEST(UnlockOracle, IgnoresLockAckAndFailedAck) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  UnlockOracle oracle(bus);
  transport::VirtualBusTransport bcm(bus, "bcm");
  bcm.send(*can::CanFrame::data(dbc::kMsgBodyAck, {dbc::kCmdLock, 0x01}));
  bcm.send(*can::CanFrame::data(dbc::kMsgBodyAck, {dbc::kCmdUnlock, 0x00}));  // result=fail
  scheduler.run_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(oracle.poll(scheduler.now()).has_value());
}

TEST(UnlockOracle, DetectsActuatorDirectly) {
  // The "sensor on the door lock" channel: no ack frame needed.
  sim::Scheduler scheduler;
  vehicle::UnlockTestbench bench(scheduler);
  UnlockOracle oracle(bench.bus(), &bench.bcm());
  bench.head_unit().request_unlock();
  scheduler.run_for(std::chrono::milliseconds(10));
  const auto obs = oracle.poll(scheduler.now());
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->verdict, Verdict::kFailure);
}

TEST(ComponentCrashOracle, FiresOncePerCrash) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  vehicle::InstrumentCluster cluster(scheduler, bus);
  ComponentCrashOracle oracle;
  oracle.watch(cluster);
  EXPECT_FALSE(oracle.poll(scheduler.now()).has_value());
  transport::VirtualBusTransport tx(bus, "tx");
  tx.send(*can::CanFrame::data(dbc::kMsgClusterDisplay, {0xF0, 0x1F}));
  scheduler.run_for(std::chrono::milliseconds(5));
  const auto obs = oracle.poll(scheduler.now());
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->verdict, Verdict::kFailure);
  EXPECT_NE(obs->detail.find("CLUSTER"), std::string::npos);
  EXPECT_FALSE(oracle.poll(scheduler.now()).has_value());  // latched
}

TEST(ClusterStateOracle, WarningThenCrashEscalation) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  vehicle::InstrumentCluster cluster(scheduler, bus);
  ClusterStateOracle oracle(cluster);
  transport::VirtualBusTransport tx(bus, "tx");
  const dbc::Database db = dbc::target_vehicle_database();
  tx.send(*db.by_id(dbc::kMsgTelltales)->encode({{"MilOn", 1.0}}));
  scheduler.run_for(std::chrono::milliseconds(5));
  auto obs = oracle.poll(scheduler.now());
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->verdict, Verdict::kSuspicious);
  tx.send(*can::CanFrame::data(dbc::kMsgClusterDisplay, {0xF0, 0x10}));
  scheduler.run_for(std::chrono::milliseconds(5));
  obs = oracle.poll(scheduler.now());
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->verdict, Verdict::kFailure);
  EXPECT_NE(obs->detail.find("CrAsH"), std::string::npos);
}

TEST(SignalPlausibilityOracle, FlagsOutOfRangeSignals) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  SignalPlausibilityOracle oracle(bus, dbc::target_vehicle_database());
  transport::VirtualBusTransport tx(bus, "tx");
  const dbc::Database db = dbc::target_vehicle_database();
  tx.send(*db.by_id(dbc::kMsgEngineData)->encode({{"EngineRPM", 1500.0}}));
  scheduler.run_for(std::chrono::milliseconds(2));
  EXPECT_FALSE(oracle.poll(scheduler.now()).has_value());
  // Raw 0xFFFF decodes to -0.25 rpm: out of [0, 8000].
  tx.send(*can::CanFrame::data(dbc::kMsgEngineData, {0xFF, 0xFF, 0, 0, 0, 0, 0, 0}));
  scheduler.run_for(std::chrono::milliseconds(2));
  const auto obs = oracle.poll(scheduler.now());
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(obs->verdict, Verdict::kSuspicious);
  EXPECT_NE(obs->detail.find("EngineRPM"), std::string::npos);
  EXPECT_GT(oracle.violations(), 0u);
}

TEST(SignalPlausibilityOracle, UnknownIdsIgnored) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  SignalPlausibilityOracle oracle(bus, dbc::target_vehicle_database());
  transport::VirtualBusTransport tx(bus, "tx");
  tx.send(can::CanFrame::data_std(0x6FF, {0xFF, 0xFF, 0xFF}));
  scheduler.run_for(std::chrono::milliseconds(2));
  EXPECT_FALSE(oracle.poll(scheduler.now()).has_value());
  EXPECT_EQ(oracle.violations(), 0u);
}

}  // namespace
}  // namespace acf::oracle
