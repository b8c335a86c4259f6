// Resilience layer: transport retry/backoff + circuit breaker, node
// supervision, richer fault injection, and the campaign's transport-failure
// policy.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "can/bus.hpp"
#include "fuzzer/campaign.hpp"
#include "fuzzer/generator.hpp"
#include "oracle/supervision_oracle.hpp"
#include "resilience/supervisor.hpp"
#include "sim/scheduler.hpp"
#include "transport/fault_injector.hpp"
#include "transport/resilient_transport.hpp"
#include "transport/virtual_bus_transport.hpp"

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

}  // namespace
}  // namespace acf
