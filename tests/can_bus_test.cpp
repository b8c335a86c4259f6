#include <gtest/gtest.h>

#include <vector>

#include "can/bus.hpp"
#include "sim/scheduler.hpp"
#include "transport/virtual_bus_transport.hpp"

namespace acf::can {
namespace {

using namespace std::chrono_literals;

/// Test listener recording everything it sees.
class Recorder : public BusListener {
 public:
  void on_frame(const CanFrame& frame, sim::SimTime time) override {
    frames.push_back(frame);
    times.push_back(time);
  }

  std::vector<CanFrame> frames;
  std::vector<sim::SimTime> times;
};

class BusTest : public ::testing::Test {
 protected:
  sim::Scheduler scheduler;
  can::VirtualBus bus{scheduler};
};

TEST_F(BusTest, DeliversToAllOtherNodes) {
  Recorder a, b, c;
  const NodeId na = bus.attach(a, "a");
  bus.attach(b, "b");
  bus.attach(c, "c");
  const auto frame = CanFrame::data_std(0x100, {1, 2});
  EXPECT_TRUE(bus.submit(na, frame));
  scheduler.run_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(a.frames.empty());  // no self-reception
  ASSERT_EQ(b.frames.size(), 1u);
  ASSERT_EQ(c.frames.size(), 1u);
  EXPECT_EQ(b.frames[0], frame);
  EXPECT_EQ(bus.pending(na), 0u);  // left the sender's queue
}

TEST_F(BusTest, DeliveryTakesWireTime) {
  Recorder a, b;
  const NodeId na = bus.attach(a, "a");
  bus.attach(b, "b");
  bus.submit(na, CanFrame::data_std(0x100, {1, 2, 3, 4, 5, 6, 7, 8}));
  scheduler.run_for(std::chrono::microseconds(100));
  EXPECT_TRUE(b.frames.empty());  // ~111+ bits at 2 us/bit is > 200 us
  scheduler.run_for(std::chrono::microseconds(300));
  EXPECT_EQ(b.frames.size(), 1u);
}

TEST_F(BusTest, SimultaneousSubmitsArbitrateByPriority) {
  Recorder a, b, tap;
  const NodeId na = bus.attach(a, "a");
  const NodeId nb = bus.attach(b, "b");
  bus.attach(tap, "tap", {}, /*listen_only=*/true);
  const auto high = CanFrame::data_std(0x100, {1});
  const auto low = CanFrame::data_std(0x200, {2});
  // Same simulated instant: both are pending when the contest runs.
  scheduler.schedule_at(sim::SimTime{1000}, [&] { bus.submit(nb, low); });
  scheduler.schedule_at(sim::SimTime{1000}, [&] { bus.submit(na, high); });
  scheduler.run_for(std::chrono::milliseconds(2));
  ASSERT_EQ(tap.frames.size(), 2u);
  EXPECT_EQ(tap.frames[0].id(), 0x100u);  // lower id transmitted first
  EXPECT_EQ(tap.frames[1].id(), 0x200u);
  EXPECT_EQ(bus.stats().arbitration_contests, 1u);
}

TEST_F(BusTest, QueuedFramesFromOneNodeStayFifo) {
  Recorder a, tap;
  const NodeId na = bus.attach(a, "a");
  bus.attach(tap, "tap", {}, true);
  bus.submit(na, CanFrame::data_std(0x300, {3}));
  bus.submit(na, CanFrame::data_std(0x100, {1}));
  scheduler.run_for(std::chrono::milliseconds(2));
  ASSERT_EQ(tap.frames.size(), 2u);
  // FIFO per node: the first submitted frame goes first even though the
  // second has higher priority (real controllers transmit mailbox order
  // for a single queue).
  EXPECT_EQ(tap.frames[0].id(), 0x300u);
}

TEST_F(BusTest, AcceptanceFiltersApplied) {
  Recorder a, filtered;
  const NodeId na = bus.attach(a, "a");
  bus.attach(filtered, "f", FilterBank{IdMaskFilter::exact(0x215)});
  bus.submit(na, CanFrame::data_std(0x215, {1}));
  bus.submit(na, CanFrame::data_std(0x216, {2}));
  scheduler.run_for(std::chrono::milliseconds(2));
  ASSERT_EQ(filtered.frames.size(), 1u);
  EXPECT_EQ(filtered.frames[0].id(), 0x215u);
}

TEST_F(BusTest, ListenOnlyNodesCannotTransmit) {
  Recorder tap;
  const NodeId nt = bus.attach(tap, "tap", {}, true);
  EXPECT_FALSE(bus.submit(nt, CanFrame::data_std(0x100, {})));
}

TEST_F(BusTest, PoweredOffNodesNeitherSendNorReceive) {
  Recorder a, b;
  const NodeId na = bus.attach(a, "a");
  const NodeId nb = bus.attach(b, "b");
  bus.set_power(nb, false);
  EXPECT_FALSE(bus.powered(nb));
  bus.submit(na, CanFrame::data_std(0x100, {}));
  scheduler.run_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(b.frames.empty());
  EXPECT_FALSE(bus.submit(nb, CanFrame::data_std(0x101, {})));
  // Power back on: participates again.
  bus.set_power(nb, true);
  bus.submit(na, CanFrame::data_std(0x102, {}));
  scheduler.run_for(std::chrono::milliseconds(1));
  EXPECT_EQ(b.frames.size(), 1u);
}

TEST_F(BusTest, DetachedNodeStopsReceiving) {
  Recorder a, b;
  const NodeId na = bus.attach(a, "a");
  const NodeId nb = bus.attach(b, "b");
  bus.detach(nb);
  bus.submit(na, CanFrame::data_std(0x100, {}));
  scheduler.run_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(b.frames.empty());
  EXPECT_EQ(bus.node_count(), 1u);
}

TEST_F(BusTest, TxQueueLimitDropsExcess) {
  Recorder a;
  const NodeId na = bus.attach(a, "a");
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < VirtualBus::kTxQueueLimit + 6; ++i) {
    if (bus.submit(na, CanFrame::data_std(0x100, {static_cast<std::uint8_t>(i)}))) {
      ++accepted;
    }
  }
  // One frame may have started transmitting; the queue holds the limit more.
  EXPECT_LE(accepted, VirtualBus::kTxQueueLimit + 2);
  EXPECT_GT(bus.stats().drops_queue_full, 0u);
}

TEST_F(BusTest, StatsTrackLoadAndCounts) {
  Recorder a, b;
  const NodeId na = bus.attach(a, "a");
  bus.attach(b, "b");
  for (int i = 0; i < 50; ++i) bus.submit(na, CanFrame::data_std(0x100, {1, 2, 3, 4}));
  scheduler.run_for(std::chrono::milliseconds(50));
  EXPECT_EQ(bus.stats().frames_delivered, 50u);
  EXPECT_EQ(bus.stats().deliveries, 50u);
  const double load = bus.stats().load(scheduler.now());
  EXPECT_GT(load, 0.1);  // 50 frames of ~170 us in 50 ms ≈ 17 %
  EXPECT_LT(load, 0.5);
}

TEST_F(BusTest, CorruptionRaisesErrorFramesAndRetransmits) {
  // Kept low enough that TEC (+8/error, -1/success) stays under the bus-off
  // threshold for the whole batch; the PersistentCorruption test covers the
  // fault-confinement path.
  BusConfig config;
  config.corruption_probability = 0.2;
  config.seed = 77;
  can::VirtualBus lossy(scheduler, config);
  Recorder a, b;
  const NodeId na = lossy.attach(a, "a");
  const NodeId nb = lossy.attach(b, "b");
  for (int i = 0; i < 40; ++i) {
    lossy.submit(na, CanFrame::data_std(0x123, {static_cast<std::uint8_t>(i)}));
  }
  scheduler.run_for(std::chrono::seconds(1));
  // Every frame eventually delivers (automatic retransmission)...
  EXPECT_EQ(b.frames.size(), 40u);
  // ...but error frames were observed, each one by the receiver too.
  EXPECT_GT(lossy.stats().error_frames, 0u);
  EXPECT_EQ(lossy.error_state(nb).rx_error_events(), lossy.stats().error_frames);
}

TEST_F(BusTest, PersistentCorruptionDrivesTransmitterBusOff) {
  BusConfig config;
  config.corruption_probability = 1.0;  // every transmission fails
  can::VirtualBus broken(scheduler, config);
  Recorder a, b;
  const NodeId na = broken.attach(a, "a");
  broken.attach(b, "b");
  // TEC +8 per attempt; bus-off above 255 -> 32 attempts needed.
  for (int i = 0; i < 40; ++i) broken.submit(na, CanFrame::data_std(0x111, {1}));
  // Stop at the error frame that takes it off: its 2.816 ms recovery window
  // has just begun.
  ASSERT_TRUE(scheduler.run_until_condition([&] { return broken.error_state(na).bus_off(); },
                                            sim::SimTime{std::chrono::seconds(2)}));
  EXPECT_EQ(broken.error_state(na).tx_error_events(), 32u);
  EXPECT_TRUE(broken.bus_off_recovering(na));
  EXPECT_TRUE(b.frames.empty());
  // The queued frames are dropped, and further submits rejected while off.
  EXPECT_EQ(broken.pending(na), 0u);
  EXPECT_FALSE(broken.submit(na, CanFrame::data_std(0x111, {1})));
  EXPECT_EQ(broken.stats().drops_bus_off, 2u);
}

TEST_F(BusTest, BusOffAutoRecoveryRestoresTransmission) {
  BusConfig config;
  config.corruption_probability = 1.0;
  config.seed = 5;
  can::VirtualBus flaky(scheduler, config);
  Recorder a, b;
  const NodeId na = flaky.attach(a, "a");
  flaky.attach(b, "b");
  for (int i = 0; i < 40; ++i) flaky.submit(na, CanFrame::data_std(0x111, {1}));
  // Drive until the transmitter has been thrown off the bus (its queue is
  // dropped at that point)...
  scheduler.run_until_condition([&] { return flaky.stats().drops_bus_off > 0; },
                                scheduler.now() + std::chrono::seconds(1));
  EXPECT_GT(flaky.stats().drops_bus_off, 0u);
  // ...then wait out the 128x11-bit recovery window: the node rejoins.
  scheduler.run_for(std::chrono::seconds(1));
  EXPECT_FALSE(flaky.error_state(na).bus_off());
  EXPECT_TRUE(flaky.submit(na, CanFrame::data_std(0x111, {1})));
}

TEST_F(BusTest, FlushedQueueAbortsDelivery) {
  Recorder a, b;
  const NodeId na = bus.attach(a, "a");
  bus.attach(b, "b");
  bus.submit(na, CanFrame::data_std(0x100, {1, 2, 3, 4, 5, 6, 7, 8}));
  bus.flush_tx_queue(na);  // flushed while "on the wire"
  scheduler.run_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(b.frames.empty());
}

TEST_F(BusTest, NodeNamesAndErrorStateAccessors) {
  Recorder a;
  const NodeId na = bus.attach(a, "engine");
  EXPECT_EQ(bus.node_name(na), "engine");
  EXPECT_EQ(bus.node_name(999), "<detached>");
  EXPECT_EQ(bus.error_state(na).mode(), ErrorMode::kErrorActive);
  EXPECT_EQ(bus.error_state(999).tec(), 0u);
}

// -------------------------------------------------------- error state -----

/// A two-node bus with random corruption, driven into every kind of state:
/// queued and corrupted frames, a node forced to bus-off, error frames.
struct DirtyRig {
  explicit DirtyRig(const BusConfig& config) : bus(scheduler, config) {
    na = bus.attach(a, "a");
    nb = bus.attach(b, "b");
    nc = bus.attach(c, "c");
  }
  void drive() {
    for (std::uint8_t i = 0; i < 20; ++i) {
      bus.submit(na, CanFrame::data_std(0x300u + i, {i}));
      bus.submit(nb, CanFrame::data_std(0x080u + i, {i}));  // wins arbitration
    }
    bus.force_tx_errors(nb, 40);  // b's next 32 attempts take it to bus-off
    bus.inject_error_frame();
    // Stops mid-traffic: a's queue non-empty, b recovering from bus-off with
    // forced errors left over; then a third node powers down.
    scheduler.run_for(std::chrono::milliseconds(4));
    bus.set_power(nc, false);
  }

  sim::Scheduler scheduler;
  VirtualBus bus;
  Recorder a, b, c;
  NodeId na = kInvalidNode;
  NodeId nb = kInvalidNode;
  NodeId nc = kInvalidNode;
};

TEST(BusReset, TrafficRunsAsOnANewBus) {
  BusConfig config;
  config.corruption_probability = 0.3;
  config.seed = 5;
  DirtyRig reused(config);
  reused.drive();
  ASSERT_TRUE(reused.bus.bus_off_recovering(reused.nb));
  ASSERT_GT(reused.bus.forced_tx_errors_remaining(reused.nb), 0u);
  ASSERT_GT(reused.bus.pending(reused.na), 0u);
  reused.scheduler.reset();
  reused.bus.reset();
  reused.a = Recorder{};
  reused.b = Recorder{};
  reused.c = Recorder{};
  reused.drive();
  DirtyRig fresh(config);
  fresh.drive();

  EXPECT_EQ(reused.a.frames, fresh.a.frames);
  EXPECT_EQ(reused.b.frames, fresh.b.frames);
  EXPECT_EQ(reused.c.frames, fresh.c.frames);
  EXPECT_EQ(reused.a.times, fresh.a.times);
  const BusStats& got = reused.bus.stats();
  const BusStats& want = fresh.bus.stats();
  EXPECT_EQ(got.frames_submitted, want.frames_submitted);
  EXPECT_EQ(got.frames_delivered, want.frames_delivered);
  EXPECT_EQ(got.error_frames, want.error_frames);
  EXPECT_EQ(got.drops_bus_off, want.drops_bus_off);
  EXPECT_EQ(got.arbitration_contests, want.arbitration_contests);
  EXPECT_EQ(got.busy_time, want.busy_time);
  EXPECT_EQ(reused.bus.busy(), fresh.bus.busy());
  for (const NodeId id : {reused.na, reused.nb}) {
    SCOPED_TRACE(reused.bus.node_name(id));
    const ErrorState& errors = reused.bus.error_state(id);
    const ErrorState& fresh_errors = fresh.bus.error_state(id);
    EXPECT_EQ(errors.tec(), fresh_errors.tec());
    EXPECT_EQ(errors.rec(), fresh_errors.rec());
    EXPECT_EQ(errors.tx_error_events(), fresh_errors.tx_error_events());
    EXPECT_EQ(errors.rx_error_events(), fresh_errors.rx_error_events());
    EXPECT_EQ(errors.bus_off_events(), fresh_errors.bus_off_events());
    EXPECT_EQ(reused.bus.bus_off_recovering(id), fresh.bus.bus_off_recovering(id));
    EXPECT_EQ(reused.bus.pending(id), fresh.bus.pending(id));
    EXPECT_EQ(reused.bus.forced_tx_errors_remaining(id),
              fresh.bus.forced_tx_errors_remaining(id));
  }
}

TEST(ErrorState, ThresholdTransitions) {
  ErrorState state;
  EXPECT_EQ(state.mode(), ErrorMode::kErrorActive);
  for (int i = 0; i < 16; ++i) state.on_tx_error();  // TEC = 128
  EXPECT_EQ(state.mode(), ErrorMode::kErrorPassive);
  for (int i = 0; i < 16; ++i) state.on_tx_error();  // TEC = 256
  EXPECT_EQ(state.mode(), ErrorMode::kBusOff);
  state.reset();
  EXPECT_EQ(state.mode(), ErrorMode::kErrorActive);
}

TEST(ErrorState, SuccessDecrements) {
  ErrorState state;
  state.on_tx_error();  // 8
  for (int i = 0; i < 8; ++i) state.on_tx_success();
  EXPECT_EQ(state.tec(), 0u);
  state.on_tx_success();  // floor at 0
  EXPECT_EQ(state.tec(), 0u);
}

TEST(ErrorState, ReceiverCounters) {
  ErrorState state;
  for (int i = 0; i < 130; ++i) state.on_rx_error();
  EXPECT_EQ(state.mode(), ErrorMode::kErrorPassive);
  state.on_rx_success();  // >127 resets into the 119..127 band (we use 127)
  EXPECT_EQ(state.rec(), 127u);
  state.on_rx_success();
  EXPECT_EQ(state.rec(), 126u);
}

TEST(ErrorState, PrimaryDetectorPenalty) {
  ErrorState state;
  state.on_rx_error_primary();
  EXPECT_EQ(state.rec(), 8u);
}

// ------------------------------------------------ error frames / bus-off ---

class FaultInjectionTest : public ::testing::Test {
 protected:
  sim::Scheduler scheduler;
  can::VirtualBus bus{scheduler};
};

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
  can::VirtualBus bus{scheduler};
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

}  // namespace
}  // namespace acf::can
