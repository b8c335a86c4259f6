// Resilience layer: transport retry/backoff + circuit breaker, node
// supervision, richer fault injection, and campaign checkpoint/resume.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "can/bus.hpp"
#include "fuzzer/campaign.hpp"
#include "fuzzer/checkpoint.hpp"
#include "fuzzer/generator.hpp"
#include "oracle/supervision_oracle.hpp"
#include "resilience/supervisor.hpp"
#include "sim/scheduler.hpp"
#include "transport/fault_injector.hpp"
#include "transport/resilient_transport.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "util/bytes.hpp"

namespace acf {
namespace {

using namespace std::chrono_literals;

/// In-memory transport with programmable failures; records what got through.
class ScriptedTransport final : public transport::CanTransport {
 public:
  bool send(const can::CanFrame& frame) override {
    ++attempts;
    const bool fail = fail_all || fail_next > 0;
    if (fail_next > 0) --fail_next;
    if (fail) {
      ++stats_.send_failures;
      return false;
    }
    ++stats_.frames_sent;
    sent.push_back(frame);
    return true;
  }
  void set_rx_callback(transport::RxCallback callback) override { rx_ = std::move(callback); }
  std::string name() const override { return "scripted"; }
  const transport::TransportStats& stats() const override { return stats_; }

  void inject_rx(const can::CanFrame& frame, sim::SimTime time) {
    if (rx_) rx_(frame, time);
  }

  int fail_next = 0;     // fail this many upcoming sends
  bool fail_all = false; // fail every send
  std::uint64_t attempts = 0;
  std::vector<can::CanFrame> sent;

 private:
  transport::TransportStats stats_;
  transport::RxCallback rx_;
};

/// Oracle that reports a suspicious observation on every poll (stateless, so
/// a resumed campaign reproduces the same findings without oracle state).
class EveryPollOracle final : public oracle::Oracle {
 public:
  std::string_view name() const override { return "every-poll"; }
  std::optional<oracle::Observation> poll(sim::SimTime now) override {
    return oracle::Observation{oracle::Verdict::kSuspicious, "tick", now};
  }
};

// ===================================================== ResilientTransport ==

class ResilientTransportTest : public ::testing::Test {
 protected:
  sim::Scheduler scheduler;
  ScriptedTransport inner;
};

TEST_F(ResilientTransportTest, ImmediateSuccessPassesThrough) {
  transport::ResilientTransport resilient(inner, scheduler);
  EXPECT_TRUE(resilient.send(can::CanFrame::data_std(0x100, {1})));
  EXPECT_EQ(resilient.resilience_stats().immediate_successes, 1u);
  EXPECT_EQ(resilient.stats().frames_sent, 1u);
  EXPECT_EQ(resilient.pending_retries(), 0u);
  ASSERT_EQ(inner.sent.size(), 1u);
}

TEST_F(ResilientTransportTest, RetriesTransientFailureWithBackoff) {
  inner.fail_next = 2;  // first try and first retry fail, second retry works
  transport::ResilientTransport resilient(inner, scheduler);
  EXPECT_TRUE(resilient.send(can::CanFrame::data_std(0x200, {0xAB})));
  EXPECT_EQ(resilient.pending_retries(), 1u);
  EXPECT_TRUE(inner.sent.empty());
  scheduler.run_for(100ms);
  ASSERT_EQ(inner.sent.size(), 1u);
  EXPECT_EQ(resilient.pending_retries(), 0u);
  const auto& stats = resilient.resilience_stats();
  EXPECT_EQ(stats.retried_successes, 1u);
  EXPECT_EQ(stats.retry_attempts, 2u);
  EXPECT_EQ(stats.frames_abandoned, 0u);
  EXPECT_EQ(resilient.stats().frames_sent, 1u);
  EXPECT_EQ(resilient.stats().send_failures, 0u);
}

TEST_F(ResilientTransportTest, AbandonsFrameAfterRetryBudget) {
  inner.fail_all = true;
  transport::RetryPolicy retry;
  retry.max_attempts = 3;
  transport::CircuitBreakerPolicy breaker;
  breaker.failure_threshold = 100;  // keep the breaker out of this test
  transport::ResilientTransport resilient(inner, scheduler, retry, breaker);
  EXPECT_TRUE(resilient.send(can::CanFrame::data_std(0x300, {})));  // queued
  scheduler.run_for(1s);
  EXPECT_EQ(resilient.pending_retries(), 0u);
  EXPECT_EQ(resilient.resilience_stats().frames_abandoned, 1u);
  EXPECT_EQ(resilient.resilience_stats().retry_attempts, 2u);  // attempts 2 and 3
  EXPECT_EQ(resilient.stats().send_failures, 1u);
  EXPECT_EQ(inner.attempts, 3u);
}

TEST_F(ResilientTransportTest, BreakerTripsFailsFastAndRecovers) {
  inner.fail_all = true;
  transport::RetryPolicy retry;
  retry.max_attempts = 1;  // no retries: each send is one attempt
  transport::CircuitBreakerPolicy breaker;
  breaker.failure_threshold = 3;
  breaker.open_duration = 10ms;
  transport::ResilientTransport resilient(inner, scheduler, retry, breaker);

  const auto frame = can::CanFrame::data_std(0x1, {});
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(resilient.send(frame));
  EXPECT_EQ(resilient.breaker_state(), transport::BreakerState::kOpen);
  EXPECT_EQ(resilient.resilience_stats().breaker_trips, 1u);
  EXPECT_EQ(inner.attempts, 3u);

  // While open, sends are rejected without touching the inner transport.
  EXPECT_FALSE(resilient.send(frame));
  EXPECT_EQ(resilient.resilience_stats().breaker_rejections, 1u);
  EXPECT_EQ(inner.attempts, 3u);

  // The link heals; after the open window the breaker half-opens and the
  // next send is the probe that closes it again.
  inner.fail_all = false;
  scheduler.run_for(11ms);
  EXPECT_EQ(resilient.breaker_state(), transport::BreakerState::kHalfOpen);
  EXPECT_TRUE(resilient.send(frame));
  EXPECT_EQ(resilient.breaker_state(), transport::BreakerState::kClosed);
  EXPECT_EQ(resilient.resilience_stats().breaker_recoveries, 1u);
  EXPECT_EQ(resilient.consecutive_failures(), 0u);
}

TEST_F(ResilientTransportTest, FailedProbeReopensWithEscalatedWindow) {
  inner.fail_all = true;
  transport::RetryPolicy retry;
  retry.max_attempts = 1;
  transport::CircuitBreakerPolicy breaker;
  breaker.failure_threshold = 2;
  breaker.open_duration = 10ms;
  breaker.open_backoff_multiplier = 2.0;
  transport::ResilientTransport resilient(inner, scheduler, retry, breaker);

  const auto frame = can::CanFrame::data_std(0x1, {});
  resilient.send(frame);
  resilient.send(frame);
  EXPECT_EQ(resilient.breaker_state(), transport::BreakerState::kOpen);

  scheduler.run_for(11ms);  // half-open
  EXPECT_FALSE(resilient.send(frame));  // probe fails: re-open, window now 20ms
  EXPECT_EQ(resilient.breaker_state(), transport::BreakerState::kOpen);
  EXPECT_EQ(resilient.resilience_stats().breaker_trips, 2u);
  scheduler.run_for(11ms);
  EXPECT_EQ(resilient.breaker_state(), transport::BreakerState::kOpen);  // still cooling
  scheduler.run_for(10ms);
  EXPECT_EQ(resilient.breaker_state(), transport::BreakerState::kHalfOpen);
}

TEST_F(ResilientTransportTest, RetryQueueBoundRejectsOverflow) {
  inner.fail_all = true;
  transport::RetryPolicy retry;
  retry.max_attempts = 10;
  retry.max_pending = 1;
  transport::CircuitBreakerPolicy breaker;
  breaker.failure_threshold = 100;
  transport::ResilientTransport resilient(inner, scheduler, retry, breaker);
  EXPECT_TRUE(resilient.send(can::CanFrame::data_std(0x1, {})));   // queued
  EXPECT_FALSE(resilient.send(can::CanFrame::data_std(0x2, {})));  // queue full
  EXPECT_EQ(resilient.resilience_stats().queue_rejections, 1u);
}

TEST_F(ResilientTransportTest, RxPassthroughCountsFrames) {
  transport::ResilientTransport resilient(inner, scheduler);
  int received = 0;
  resilient.set_rx_callback([&](const can::CanFrame&, sim::SimTime) { ++received; });
  inner.inject_rx(can::CanFrame::data_std(0x42, {7}), sim::SimTime{0});
  EXPECT_EQ(received, 1);
  EXPECT_EQ(resilient.stats().frames_received, 1u);
  EXPECT_EQ(resilient.name(), "resilient:scripted");
}

// ===================================================== fault injection =====

class FaultInjectionTest : public ::testing::Test {
 protected:
  sim::Scheduler scheduler;
  can::VirtualBus bus{scheduler};
};

TEST_F(FaultInjectionTest, GilbertElliottBurstDropsEverythingInBadState) {
  transport::VirtualBusTransport a(bus, "a");
  transport::VirtualBusTransport b(bus, "b");
  transport::FaultPlan plan;
  plan.burst_loss = true;
  plan.burst_p = 1.0;   // first frame transitions good -> bad
  plan.burst_r = 0.0;   // and the channel never recovers
  plan.loss_bad = 1.0;
  transport::FaultInjector faulty(b, plan);
  int received = 0;
  faulty.set_rx_callback([&](const can::CanFrame&, sim::SimTime) { ++received; });
  for (int i = 0; i < 10; ++i) a.send(can::CanFrame::data_std(0x50, {1}));
  scheduler.run_for(10ms);
  EXPECT_EQ(received, 0);
  EXPECT_TRUE(faulty.in_burst());
  EXPECT_EQ(faulty.fault_stats().rx_burst_dropped, 10u);
  EXPECT_EQ(faulty.fault_stats().rx_dropped, 10u);
}

TEST_F(FaultInjectionTest, GilbertElliottGoodStateIsLossless) {
  transport::VirtualBusTransport a(bus, "a");
  transport::VirtualBusTransport b(bus, "b");
  transport::FaultPlan plan;
  plan.burst_loss = true;
  plan.burst_p = 0.0;  // never leaves the good state
  plan.loss_good = 0.0;
  transport::FaultInjector faulty(b, plan);
  int received = 0;
  faulty.set_rx_callback([&](const can::CanFrame&, sim::SimTime) { ++received; });
  for (int i = 0; i < 10; ++i) a.send(can::CanFrame::data_std(0x51, {1}));
  scheduler.run_for(10ms);
  EXPECT_EQ(received, 10);
  EXPECT_FALSE(faulty.in_burst());
  EXPECT_EQ(faulty.fault_stats().rx_burst_dropped, 0u);
}

TEST_F(FaultInjectionTest, RxDelayDefersDeliveryOnScheduler) {
  transport::VirtualBusTransport a(bus, "a");
  transport::VirtualBusTransport b(bus, "b");
  transport::FaultPlan plan;
  plan.rx_delay = 5ms;
  transport::FaultInjector faulty(b, plan, scheduler);
  std::vector<sim::SimTime> arrivals;
  faulty.set_rx_callback([&](const can::CanFrame&, sim::SimTime t) { arrivals.push_back(t); });
  a.send(can::CanFrame::data_std(0x60, {1, 2}));
  scheduler.run_for(2ms);
  EXPECT_TRUE(arrivals.empty());  // on the wire already, but held by the fault
  scheduler.run_for(10ms);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_GE(arrivals[0], sim::SimTime{5ms});
  EXPECT_EQ(faulty.fault_stats().rx_delayed, 1u);
}

TEST_F(FaultInjectionTest, RxReorderSwapsAdjacentDeliveries) {
  transport::VirtualBusTransport a(bus, "a");
  transport::VirtualBusTransport b(bus, "b");
  transport::FaultPlan plan;
  plan.rx_reorder = 1.0;
  transport::FaultInjector faulty(b, plan);
  std::vector<std::uint32_t> order;
  faulty.set_rx_callback([&](const can::CanFrame& f, sim::SimTime) { order.push_back(f.id()); });
  a.send(can::CanFrame::data_std(0x1, {}));
  a.send(can::CanFrame::data_std(0x2, {}));
  scheduler.run_for(10ms);
  // Frame 1 is held back; frame 2's arrival releases it after itself.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0x2u);
  EXPECT_EQ(order[1], 0x1u);
  EXPECT_EQ(faulty.fault_stats().rx_reordered, 1u);
}

TEST_F(FaultInjectionTest, InjectorTracksItsOwnStats) {
  transport::VirtualBusTransport a(bus, "a");
  transport::VirtualBusTransport b(bus, "b");
  transport::FaultPlan plan;
  plan.tx_drop = 1.0;
  plan.rx_duplicate = 1.0;
  transport::FaultInjector faulty(b, plan);
  int received = 0;
  faulty.set_rx_callback([&](const can::CanFrame&, sim::SimTime) { ++received; });

  // A swallowed tx still looks sent from above, but never reaches the bus.
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(faulty.send(can::CanFrame::data_std(0x70, {1})));
  EXPECT_EQ(faulty.stats().frames_sent, 5u);
  EXPECT_EQ(b.stats().frames_sent, 0u);

  // A duplicated rx counts both deliveries at this layer, one below.
  a.send(can::CanFrame::data_std(0x71, {2}));
  scheduler.run_for(5ms);
  EXPECT_EQ(received, 2);
  EXPECT_EQ(faulty.stats().frames_received, 2u);
  EXPECT_EQ(b.stats().frames_received, 1u);
}

// =============================================== error frames / bus-off ====

TEST_F(FaultInjectionTest, InjectedErrorFrameHitsEveryPoweredNode) {
  transport::VirtualBusTransport a(bus, "a");
  transport::VirtualBusTransport b(bus, "b");
  bus.inject_error_frame();
  EXPECT_EQ(bus.error_state(a.node_id()).rec(), 1u);
  EXPECT_EQ(bus.error_state(b.node_id()).rec(), 1u);
  EXPECT_EQ(bus.stats().error_frames, 1u);
}

TEST(BusOffRecoveryTest, NodeRejoinsAfterStandardRecoveryTime) {
  sim::Scheduler scheduler;
  can::VirtualBus bus{scheduler};  // auto_bus_off_recovery = true (default)
  transport::VirtualBusTransport tx(bus, "victim");
  transport::VirtualBusTransport rx(bus, "peer");

  // 32 forced bus errors at TEC += 8 each drive the transmitter past 255.
  bus.force_tx_errors(tx.node_id(), 32);
  ASSERT_TRUE(tx.send(can::CanFrame::data_std(0x123, {0xAA})));
  ASSERT_TRUE(scheduler.run_until_condition(
      [&] { return bus.bus_off_recovering(tx.node_id()); }, sim::SimTime{1s}));
  const sim::SimTime went_off = scheduler.now();

  // Recovery takes 128 x 11 bit times: 2.816 ms at 500 kb/s.
  scheduler.run_until(went_off + 2ms);
  EXPECT_TRUE(bus.bus_off_recovering(tx.node_id()));
  scheduler.run_until(went_off + 3ms);
  EXPECT_FALSE(bus.bus_off_recovering(tx.node_id()));
  EXPECT_EQ(bus.error_state(tx.node_id()).tec(), 0u);

  // And it can transmit again.
  int received = 0;
  rx.set_rx_callback([&](const can::CanFrame&, sim::SimTime) { ++received; });
  EXPECT_TRUE(tx.send(can::CanFrame::data_std(0x124, {0xBB})));
  scheduler.run_for(5ms);
  EXPECT_EQ(received, 1);
}

TEST(BusOffRecoveryTest, NodeStaysOffWithoutAutoRecovery) {
  sim::Scheduler scheduler;
  can::BusConfig config;
  config.auto_bus_off_recovery = false;
  can::VirtualBus bus{scheduler, config};
  transport::VirtualBusTransport tx(bus, "victim");
  transport::VirtualBusTransport rx(bus, "peer");

  bus.force_tx_errors(tx.node_id(), 32);
  ASSERT_TRUE(tx.send(can::CanFrame::data_std(0x123, {0xAA})));
  ASSERT_TRUE(scheduler.run_until_condition(
      [&] { return bus.error_state(tx.node_id()).bus_off(); }, sim::SimTime{1s}));

  scheduler.run_for(100ms);  // far beyond the 2.816 ms recovery window
  EXPECT_TRUE(bus.error_state(tx.node_id()).bus_off());
  EXPECT_FALSE(bus.bus_off_recovering(tx.node_id()));
  EXPECT_FALSE(tx.send(can::CanFrame::data_std(0x124, {})));
}

// ========================================================== supervision ====

TEST(NodeSupervisorTest, RestoresBusOffNodeWithinBackoffWindow) {
  sim::Scheduler scheduler;
  can::BusConfig bus_config;
  bus_config.auto_bus_off_recovery = false;  // only the supervisor can heal it
  can::VirtualBus bus{scheduler, bus_config};
  transport::VirtualBusTransport victim(bus, "victim");
  transport::VirtualBusTransport peer(bus, "peer");

  resilience::SupervisorConfig config;
  config.poll_period = 1ms;
  config.heartbeat_window = 500ms;  // silence detection out of the way
  config.restart_off_time = 2ms;
  config.restart_backoff = 5ms;
  resilience::NodeSupervisor supervisor(scheduler, bus, config);
  supervisor.watch(victim.node_id(), {0x100});
  supervisor.start();

  // The victim heartbeats every 1 ms (failed submits while off are dropped).
  scheduler.schedule_every(1ms, [&] { victim.send(can::CanFrame::data_std(0x100, {0x01})); });

  bus.force_tx_errors(victim.node_id(), 32);
  ASSERT_TRUE(scheduler.run_until_condition(
      [&] { return supervisor.stats().bus_off_detections > 0; }, sim::SimTime{1s}));
  const sim::SimTime detected = scheduler.now();

  ASSERT_TRUE(scheduler.run_until_condition(
      [&] { return supervisor.stats().recoveries > 0; }, sim::SimTime{1s}));
  // Restored within the configured off-time + backoff (plus poll slack).
  EXPECT_LE(scheduler.now() - detected,
            config.restart_off_time + config.restart_backoff + 5ms);

  EXPECT_GE(supervisor.stats().restarts, 1u);
  EXPECT_EQ(supervisor.restarts(victim.node_id()), supervisor.stats().restarts);
  EXPECT_FALSE(supervisor.abandoned(victim.node_id()));
  EXPECT_EQ(bus.error_state(victim.node_id()).mode(), can::ErrorMode::kErrorActive);

  // The event stream tells the whole story: bus-off, restart, recovered.
  bool saw_bus_off = false, saw_restart = false, saw_recovered = false;
  for (const auto& event : supervisor.events()) {
    saw_bus_off |= event.type == resilience::SupervisionEventType::kBusOff;
    saw_restart |= event.type == resilience::SupervisionEventType::kRestart;
    saw_recovered |= event.type == resilience::SupervisionEventType::kRecovered;
    EXPECT_FALSE(event.summary().empty());
  }
  EXPECT_TRUE(saw_bus_off);
  EXPECT_TRUE(saw_restart);
  EXPECT_TRUE(saw_recovered);
}

TEST(NodeSupervisorTest, DetectsSilentNodeAndRestartsIt) {
  sim::Scheduler scheduler;
  can::VirtualBus bus{scheduler};
  transport::VirtualBusTransport node(bus, "ecu");
  transport::VirtualBusTransport peer(bus, "peer");

  resilience::SupervisorConfig config;
  config.poll_period = 1ms;
  config.heartbeat_window = 10ms;
  config.restart_off_time = 2ms;
  config.restart_backoff = 5ms;
  resilience::NodeSupervisor supervisor(scheduler, bus, config);
  supervisor.watch(node.node_id(), {0x200});
  supervisor.start();

  // Heartbeats until t = 20 ms, then the "firmware" hangs; the supervisor's
  // restart action un-hangs it.
  bool hung = false;
  scheduler.schedule_every(2ms, [&] {
    if (!hung) node.send(can::CanFrame::data_std(0x200, {0x5A}));
  });
  scheduler.schedule_at(sim::SimTime{20ms}, [&] { hung = true; });
  supervisor.set_restart_action([&](can::NodeId) { hung = false; });

  ASSERT_TRUE(scheduler.run_until_condition(
      [&] { return supervisor.stats().recoveries > 0; }, sim::SimTime{1s}));
  EXPECT_EQ(supervisor.stats().silent_detections, 1u);
  EXPECT_EQ(supervisor.stats().restarts, 1u);
  EXPECT_EQ(supervisor.restarts(node.node_id()), 1u);
}

TEST(NodeSupervisorTest, AbandonsNodeAfterRestartBudget) {
  sim::Scheduler scheduler;
  can::VirtualBus bus{scheduler};
  transport::VirtualBusTransport node(bus, "dead-ecu");

  resilience::SupervisorConfig config;
  config.poll_period = 1ms;
  config.heartbeat_window = 5ms;
  config.restart_off_time = 1ms;
  config.restart_budget = 2;
  config.restart_backoff = 2ms;
  resilience::NodeSupervisor supervisor(scheduler, bus, config);
  supervisor.watch(node.node_id(), {0x300});
  supervisor.set_restart_action([](can::NodeId) { /* node never comes back */ });
  supervisor.start();

  scheduler.run_for(2s);
  EXPECT_TRUE(supervisor.abandoned(node.node_id()));
  EXPECT_EQ(supervisor.restarts(node.node_id()), 2u);
  EXPECT_EQ(supervisor.stats().budget_exhaustions, 1u);
  ASSERT_FALSE(supervisor.events().empty());
  EXPECT_EQ(supervisor.events().back().type,
            resilience::SupervisionEventType::kBudgetExhausted);

  // No further restarts after abandonment.
  const auto restarts = supervisor.stats().restarts;
  scheduler.run_for(1s);
  EXPECT_EQ(supervisor.stats().restarts, restarts);
}

TEST(SupervisionOracleTest, FoldsEventsIntoVerdicts) {
  sim::Scheduler scheduler;
  can::VirtualBus bus{scheduler};
  transport::VirtualBusTransport node(bus, "dead-ecu");

  resilience::SupervisorConfig config;
  config.poll_period = 1ms;
  config.heartbeat_window = 5ms;
  config.restart_off_time = 1ms;
  config.restart_budget = 1;
  config.restart_backoff = 2ms;
  resilience::NodeSupervisor supervisor(scheduler, bus, config);
  oracle::SupervisionOracle sup_oracle(supervisor);
  supervisor.watch(node.node_id(), {0x300});
  supervisor.set_restart_action([](can::NodeId) {});
  supervisor.start();

  // After the silence detection + restart, the worst news is suspicious.
  ASSERT_TRUE(scheduler.run_until_condition(
      [&] { return supervisor.stats().restarts > 0; }, sim::SimTime{1s}));
  auto observation = sup_oracle.poll(scheduler.now());
  ASSERT_TRUE(observation.has_value());
  EXPECT_EQ(observation->verdict, oracle::Verdict::kSuspicious);

  // Once the budget is exhausted the oracle escalates to a failure verdict.
  ASSERT_TRUE(scheduler.run_until_condition(
      [&] { return supervisor.stats().budget_exhaustions > 0; }, sim::SimTime{2s}));
  observation = sup_oracle.poll(scheduler.now());
  ASSERT_TRUE(observation.has_value());
  EXPECT_EQ(observation->verdict, oracle::Verdict::kFailure);

  // Nothing new: no observation; reset() fast-forwards the cursor.
  EXPECT_FALSE(sup_oracle.poll(scheduler.now()).has_value());
  sup_oracle.reset();
  EXPECT_FALSE(sup_oracle.poll(scheduler.now()).has_value());
}

// ================================================== campaign hardening =====

TEST(CampaignResilienceTest, StopsWhenTransportDeclaredDead) {
  sim::Scheduler scheduler;
  ScriptedTransport transport;
  transport.fail_all = true;
  fuzzer::RandomGenerator generator(fuzzer::FuzzConfig::full_random(7));
  fuzzer::CampaignConfig config;
  config.tx_period = 1ms;
  config.max_duration = 1s;
  config.max_consecutive_send_failures = 5;
  fuzzer::FuzzCampaign campaign(scheduler, transport, generator, nullptr, config);
  const auto& result = campaign.run();
  EXPECT_EQ(result.reason, fuzzer::StopReason::kTransportDead);
  EXPECT_EQ(result.send_failures, 5u);
  EXPECT_EQ(result.frames_sent, 0u);
}

TEST(CampaignResilienceTest, TransientFailuresDoNotKillTheCampaign) {
  sim::Scheduler scheduler;
  ScriptedTransport transport;
  transport.fail_next = 3;  // a burst of failures, then healthy again
  fuzzer::RandomGenerator generator(fuzzer::FuzzConfig::full_random(7));
  fuzzer::CampaignConfig config;
  config.tx_period = 1ms;
  config.max_duration = 1s;
  config.max_frames = 20;
  config.max_consecutive_send_failures = 5;
  fuzzer::FuzzCampaign campaign(scheduler, transport, generator, nullptr, config);
  const auto& result = campaign.run();
  EXPECT_EQ(result.reason, fuzzer::StopReason::kFrameLimit);
  EXPECT_EQ(result.send_failures, 3u);
  EXPECT_EQ(result.frames_sent, 20u);
}

// ================================================== checkpoint / resume ====

TEST(CheckpointTest, RandomGeneratorStateRestoresInO1) {
  fuzzer::RandomGenerator a(fuzzer::FuzzConfig::full_random(0xBEEF));
  for (int i = 0; i < 37; ++i) a.next();
  const auto state = a.save_state();
  ASSERT_EQ(state.size(), 5u);  // counter + 4 xoshiro words

  fuzzer::RandomGenerator b(fuzzer::FuzzConfig::full_random(0xBEEF));
  ASSERT_TRUE(b.restore_state(state));
  EXPECT_EQ(b.generated(), 37u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(*a.next(), *b.next());
}

TEST(CheckpointTest, ReplayRestoreWorksForAnyDeterministicGenerator) {
  fuzzer::FuzzConfig config;
  config.id_min = 0x10;
  config.id_max = 0x12;
  config.dlc_min = 0;
  config.dlc_max = 1;
  fuzzer::SweepGenerator a(config);
  for (int i = 0; i < 5; ++i) a.next();
  const auto state = a.save_state();
  ASSERT_EQ(state.size(), 1u);  // base-class form: frame counter only

  fuzzer::SweepGenerator b(config);
  ASSERT_TRUE(b.restore_state(state));
  for (int i = 0; i < 10; ++i) {
    const auto fa = a.next();
    const auto fb = b.next();
    ASSERT_EQ(fa.has_value(), fb.has_value());
    if (fa) {
      EXPECT_EQ(*fa, *fb);
    }
  }
}

/// A checkpoint with every section populated: state words, a finding with
/// its frame window, and a campaign window holding data, remote and FD frames.
fuzzer::CampaignCheckpoint sample_checkpoint() {
  fuzzer::CampaignCheckpoint checkpoint;
  checkpoint.frames_sent = 123456;
  checkpoint.send_failures = 7;
  checkpoint.elapsed = 90s;
  checkpoint.generator_name = "mutation v2";
  checkpoint.generator_state = {1, 2, 3, 4};
  fuzzer::Finding finding;
  finding.observation.verdict = oracle::Verdict::kFailure;
  finding.observation.time = sim::SimTime{42s};
  finding.observation.detail = "bus silent 120ms";
  finding.frames_sent = 99999;
  finding.seed = 181362413;
  finding.generator = "random";
  finding.recent_frames.push_back(
      {can::CanFrame::data_std(0x580, {0xDE, 0xAD, 0xBE, 0xEF}), sim::SimTime{41s}});
  finding.recent_frames.push_back(
      {*can::CanFrame::remote(0x1FFFFFF0, 4, can::IdFormat::kExtended), sim::SimTime{42s}});
  checkpoint.findings.push_back(finding);
  const std::vector<std::uint8_t> fd_payload(12, 0xAB);
  checkpoint.recent_frames.push_back(
      {*can::CanFrame::fd_data(0x18DAF110, fd_payload, true, can::IdFormat::kExtended),
       sim::SimTime{89s}});
  return checkpoint;
}

std::optional<fuzzer::CampaignCheckpoint> decode_bytes(const std::vector<std::uint8_t>& bytes) {
  return fuzzer::CampaignCheckpoint::decode(bytes);
}

std::vector<std::uint8_t> bytes_of(std::string_view text) { return {text.begin(), text.end()}; }

/// A record's fixed header: magic, version, counters, elapsed time and
/// generator name, up to (not including) the generator-state count.
util::ByteWriter checkpoint_header() {
  const std::vector<std::uint8_t> empty = fuzzer::CampaignCheckpoint{}.encode();
  util::ByteReader prefix(empty);
  util::ByteWriter w;
  w.u32(prefix.u32());  // magic
  w.u32(prefix.u32());  // version
  w.u64(1);
  w.u64(0);
  w.i64(0);
  w.str("g");
  return w;
}

/// A record whose campaign window holds one frame with the given flag byte
/// and length byte, followed by that many payload bytes (none for remote).
std::vector<std::uint8_t> window_of_one_frame(std::uint8_t flags, std::uint8_t length) {
  util::ByteWriter w = checkpoint_header();
  w.u32(0);  // generator-state words
  w.u32(0);  // findings
  w.u32(1);  // window frames
  w.i64(0);
  w.u32(0x123);
  w.u8(flags);
  w.u8(length);
  if ((flags & 0x02) == 0) {
    for (std::uint8_t i = 0; i < length; ++i) w.u8(i);
  }
  return w.take();
}

TEST(CheckpointTest, RejectsCorruptAndMismatchedInput) {
  const std::vector<std::uint8_t> good = sample_checkpoint().encode();
  ASSERT_TRUE(decode_bytes(good).has_value());
  EXPECT_FALSE(decode_bytes(bytes_of("garbage")).has_value());
  EXPECT_FALSE(decode_bytes({}).has_value());
  std::vector<std::uint8_t> wrong_magic = good;
  wrong_magic[0] ^= 0xFF;
  EXPECT_FALSE(decode_bytes(wrong_magic).has_value());
  std::vector<std::uint8_t> wrong_version = good;
  wrong_version[4] = 2;  // the previous (text) version number
  EXPECT_FALSE(decode_bytes(wrong_version).has_value());
  for (std::size_t cut = 1; cut <= good.size(); ++cut) {
    EXPECT_FALSE(decode_bytes({good.begin(), good.end() - static_cast<std::ptrdiff_t>(cut)}))
        << "truncated by " << cut;
  }
  std::vector<std::uint8_t> padded = good;
  padded.push_back(0);
  EXPECT_FALSE(decode_bytes(padded).has_value());
  EXPECT_FALSE(fuzzer::CampaignCheckpoint::load("/nonexistent/path").has_value());

  // Restoring a random-generator checkpoint into a sweep campaign refuses.
  sim::Scheduler scheduler;
  ScriptedTransport transport;
  fuzzer::SweepGenerator generator(fuzzer::FuzzConfig::full_random(1));
  fuzzer::FuzzCampaign campaign(scheduler, transport, generator, nullptr, {});
  fuzzer::CampaignCheckpoint checkpoint;
  checkpoint.generator_name = "random";
  checkpoint.generator_state = {0, 1, 2, 3, 4};
  EXPECT_FALSE(campaign.restore(checkpoint));
}

TEST(CheckpointTest, RejectsTheParentTextFormat) {
  // A checkpoint file written before the binary record must be refused
  // cleanly, never half-read.
  const std::string path = ::testing::TempDir() + "/acf_checkpoint_text.txt";
  {
    std::ofstream out(path);
    out << "ACF-CHECKPOINT 2\nframes_sent 0\nsend_failures 0\nelapsed_ns 0\n"
           "generator counter\nstate 4 1 2 3 4\nfindings 0\nwindow 0\nend\n";
  }
  EXPECT_FALSE(fuzzer::CampaignCheckpoint::load(path).has_value());
  std::remove(path.c_str());
}

TEST(CheckpointTest, HostileGeneratorNamesRoundTrip) {
  // Regression: names were tokens in a line-oriented text stream, and a name
  // with whitespace ("mutation v2") shifted every following field by one
  // token.  The record length-prefixes them, so any bytes survive.
  for (const std::string& name :
       std::vector<std::string>{"mutation v2", "smart%gen", "tab\tand\nnewline", "-", "%2D",
                                " ", "", std::string("nul\0inside", 10)}) {
    fuzzer::CampaignCheckpoint checkpoint;
    checkpoint.generator_name = name;
    checkpoint.generator_state = {1, 2, 3, 4};
    fuzzer::Finding finding;
    finding.generator = name;
    checkpoint.findings.push_back(finding);
    const auto restored = decode_bytes(checkpoint.encode());
    ASSERT_TRUE(restored.has_value()) << "name: '" << name << "'";
    EXPECT_EQ(restored->generator_name, name);
    EXPECT_EQ(restored->findings.at(0).generator, name);
  }
}

TEST(CheckpointTest, RejectsAbsurdDeclaredCounts) {
  // Regression: the decoder used to reserve() whatever counts the input
  // declared, so a tiny hostile file could demand a multi-gigabyte
  // allocation before any content validated it.  Every count is now checked
  // against the bytes left.
  util::ByteWriter huge_state = checkpoint_header();
  huge_state.u32(0xFFFFFFFFu);
  for (const std::uint64_t word : {1ULL, 2ULL, 3ULL, 4ULL}) huge_state.u64(word);
  huge_state.u32(0);
  huge_state.u32(0);
  EXPECT_FALSE(decode_bytes(huge_state.bytes()).has_value());

  util::ByteWriter huge_findings = checkpoint_header();
  huge_findings.u32(0);
  huge_findings.u32(0xFFFFFFFFu);
  huge_findings.u32(0);
  EXPECT_FALSE(decode_bytes(huge_findings.bytes()).has_value());

  util::ByteWriter huge_window = checkpoint_header();
  huge_window.u32(0);
  huge_window.u32(0);
  huge_window.u32(0xFFFFFFFFu);
  EXPECT_FALSE(decode_bytes(huge_window.bytes()).has_value());

  // A stored remote frame requesting more than 8 bytes is not a frame.
  for (const std::uint8_t dlc : {std::uint8_t{8}, std::uint8_t{9}, std::uint8_t{255}}) {
    EXPECT_EQ(decode_bytes(window_of_one_frame(0x02, dlc)).has_value(), dlc == 8)
        << "dlc " << int(dlc);
  }
}

TEST(CheckpointTest, RejectsNonCanonicalFrames) {
  // Flags: 0x01 extended, 0x02 remote, 0x04 FD, 0x08 bit-rate switch.  Only
  // the form the encoder writes is accepted, so decode∘encode stays the
  // identity on every stored frame.
  EXPECT_TRUE(decode_bytes(window_of_one_frame(0x00, 8)).has_value());
  EXPECT_TRUE(decode_bytes(window_of_one_frame(0x0C, 12)).has_value());
  EXPECT_TRUE(decode_bytes(window_of_one_frame(0x04, 5)).has_value());
  EXPECT_FALSE(decode_bytes(window_of_one_frame(0x08, 2)).has_value());   // BRS, classic
  EXPECT_FALSE(decode_bytes(window_of_one_frame(0x06, 0)).has_value());   // FD remote
  EXPECT_FALSE(decode_bytes(window_of_one_frame(0x10, 0)).has_value());   // unknown bit
  EXPECT_FALSE(decode_bytes(window_of_one_frame(0x00, 9)).has_value());   // classic > 8
  EXPECT_FALSE(decode_bytes(window_of_one_frame(0x04, 9)).has_value());   // no FD length 9
  EXPECT_FALSE(decode_bytes(window_of_one_frame(0x04, 65)).has_value());  // FD > 64
}

TEST(CheckpointTest, SaveAndLoadRoundTripIsByteIdentical) {
  sim::Scheduler scheduler;
  ScriptedTransport transport;
  fuzzer::RandomGenerator generator(fuzzer::FuzzConfig::full_random(0xC0FFEE));
  EveryPollOracle oracle;
  fuzzer::CampaignConfig config;
  config.tx_period = 1ms;
  config.oracle_period = 10ms;
  config.max_frames = 50;
  config.max_duration = 1s;
  config.stop_on_failure = false;
  fuzzer::FuzzCampaign campaign(scheduler, transport, generator, &oracle, config);
  campaign.run();

  const auto checkpoint = campaign.checkpoint();
  EXPECT_EQ(checkpoint.frames_sent, 50u);
  EXPECT_FALSE(checkpoint.findings.empty());
  EXPECT_FALSE(checkpoint.recent_frames.empty());

  const std::string path = ::testing::TempDir() + "/acf_checkpoint_test.bin";
  ASSERT_TRUE(checkpoint.save(path));
  const auto loaded = fuzzer::CampaignCheckpoint::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->encode(), checkpoint.encode());
  std::remove(path.c_str());

  // A save whose bytes cannot reach the disk reports failure.
  EXPECT_FALSE(sample_checkpoint().save("/dev/full"));
}

TEST(CheckpointTest, ResumedCampaignIsByteIdenticalToUninterrupted) {
  fuzzer::CampaignConfig config;
  config.tx_period = 1ms;
  config.oracle_period = 10ms;
  config.max_duration = 1s;
  config.stop_on_failure = false;
  const auto fuzz = fuzzer::FuzzConfig::full_random(0xD15EA5E);

  // Reference: one uninterrupted 200-frame campaign.
  sim::Scheduler sched_a;
  ScriptedTransport transport_a;
  fuzzer::RandomGenerator generator_a(fuzz);
  EveryPollOracle oracle_a;
  auto config_a = config;
  config_a.max_frames = 200;
  fuzzer::FuzzCampaign campaign_a(sched_a, transport_a, generator_a, &oracle_a, config_a);
  ASSERT_EQ(campaign_a.run().reason, fuzzer::StopReason::kFrameLimit);

  // Interrupted: stop at frame 100 and checkpoint through the record.
  sim::Scheduler sched_b1;
  ScriptedTransport transport_b1;
  fuzzer::RandomGenerator generator_b1(fuzz);
  EveryPollOracle oracle_b1;
  auto config_b1 = config;
  config_b1.max_frames = 100;
  fuzzer::FuzzCampaign campaign_b1(sched_b1, transport_b1, generator_b1, &oracle_b1,
                                   config_b1);
  ASSERT_EQ(campaign_b1.run().reason, fuzzer::StopReason::kFrameLimit);
  const auto restored = decode_bytes(campaign_b1.checkpoint().encode());
  ASSERT_TRUE(restored.has_value());

  // Resume in a fresh process-worth of objects, clock pre-advanced to where
  // the interrupted run left off.
  sim::Scheduler sched_b2;
  sched_b2.run_until(sim::SimTime{100ms});
  ScriptedTransport transport_b2;
  fuzzer::RandomGenerator generator_b2(fuzz);
  EveryPollOracle oracle_b2;
  auto config_b2 = config;
  config_b2.max_frames = 200;
  fuzzer::FuzzCampaign campaign_b2(sched_b2, transport_b2, generator_b2, &oracle_b2,
                                   config_b2);
  ASSERT_TRUE(campaign_b2.restore(*restored));
  ASSERT_EQ(campaign_b2.run().reason, fuzzer::StopReason::kFrameLimit);

  // Byte-identical frame sequence: first 100 + resumed 100 == reference 200.
  ASSERT_EQ(transport_a.sent.size(), 200u);
  ASSERT_EQ(transport_b1.sent.size(), 100u);
  ASSERT_EQ(transport_b2.sent.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(transport_a.sent[i], transport_b1.sent[i]);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(transport_a.sent[100 + i], transport_b2.sent[i]);
  }

  // Byte-identical end state: counters, findings, window, generator state.
  EXPECT_EQ(campaign_b2.result().frames_sent, 200u);
  EXPECT_EQ(campaign_b2.result().findings.size(), campaign_a.result().findings.size());
  EXPECT_EQ(campaign_a.checkpoint().encode(), campaign_b2.checkpoint().encode());
}

TEST(CheckpointTest, PeriodicCheckpointCallbackFires) {
  sim::Scheduler scheduler;
  ScriptedTransport transport;
  fuzzer::RandomGenerator generator(fuzzer::FuzzConfig::full_random(3));
  fuzzer::CampaignConfig config;
  config.tx_period = 1ms;
  config.max_frames = 90;
  config.max_duration = 1s;
  config.checkpoint_period = 25ms;
  fuzzer::FuzzCampaign campaign(scheduler, transport, generator, nullptr, config);
  std::vector<std::uint64_t> snapshots;
  campaign.set_on_checkpoint([&](const fuzzer::CampaignCheckpoint& checkpoint) {
    snapshots.push_back(checkpoint.frames_sent);
  });
  campaign.run();
  // t = 25, 50, 75 ms (each checkpoint fires before that instant's tx tick);
  // the campaign finished at frame 90 before the 100 ms checkpoint.
  ASSERT_EQ(snapshots.size(), 3u);
  EXPECT_EQ(snapshots[0], 24u);
  EXPECT_EQ(snapshots[1], 49u);
  EXPECT_EQ(snapshots[2], 74u);
}

}  // namespace
}  // namespace acf
