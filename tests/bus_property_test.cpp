// System-level property tests for the virtual bus: conservation (every
// accepted frame delivered exactly once to every other node), global
// priority ordering, timing consistency and run-to-run determinism — the
// invariants the Table V timing results rest on.
#include <gtest/gtest.h>

#include <map>

#include "sim/scheduler.hpp"
#include "trace/capture.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "util/rng.hpp"

namespace acf::can {
namespace {

struct TrafficNode : BusListener {
  void on_frame(const CanFrame& frame, sim::SimTime) override {
    ++received[frame.to_string()];
    ++total_received;
  }
  std::map<std::string, int> received;
  int total_received = 0;
};

TEST(BusProperty, ConservationUnderRandomLoad) {
  // 4 nodes submit random unique frames at random times; afterwards every
  // accepted frame must have been delivered once and received exactly once
  // at each of the other 3 nodes.
  sim::Scheduler scheduler;
  VirtualBus bus(scheduler);
  constexpr int kNodes = 4;
  TrafficNode nodes[kNodes];
  NodeId ids[kNodes];
  for (int i = 0; i < kNodes; ++i) {
    ids[i] = bus.attach(nodes[i], "n" + std::to_string(i));
  }
  util::Rng rng(0xC0145);
  std::map<std::string, int> accepted;  // frame -> submissions accepted
  int submitted_ok = 0;
  for (int burst = 0; burst < 100; ++burst) {
    scheduler.run_for(std::chrono::microseconds(rng.next_in(50, 2000)));
    const int node = static_cast<int>(rng.next_below(kNodes));
    // Unique payload per submission so deliveries are distinguishable.
    const std::uint8_t payload[4] = {static_cast<std::uint8_t>(burst),
                                     static_cast<std::uint8_t>(node),
                                     rng.next_byte(), rng.next_byte()};
    const auto frame = *CanFrame::data(static_cast<std::uint32_t>(rng.next_below(2048)),
                                       payload);
    if (bus.submit(ids[node], frame)) {
      ++accepted[frame.to_string()];
      ++submitted_ok;
    }
  }
  scheduler.run_for(std::chrono::seconds(1));  // drain

  EXPECT_EQ(bus.stats().frames_delivered, static_cast<std::uint64_t>(submitted_ok));
  for (const auto& [key, count] : accepted) {
    int receivers_with_it = 0;
    for (const auto& node : nodes) {
      const auto it = node.received.find(key);
      if (it != node.received.end()) {
        EXPECT_EQ(it->second, count) << key;  // exactly once per submission
        ++receivers_with_it;
      }
    }
    EXPECT_EQ(receivers_with_it, kNodes - 1) << key;
  }
  // Total deliveries = accepted frames x (kNodes - 1).
  int total = 0;
  for (const auto& node : nodes) total += node.total_received;
  EXPECT_EQ(total, submitted_ok * (kNodes - 1));
}

TEST(BusProperty, PendingFramesAlwaysDrainInPriorityOrder) {
  // Queue frames on many nodes while the bus is busy; once it drains, the
  // observed order must be globally non-decreasing in arbitration rank
  // (per contest, the lowest pending rank wins).
  sim::Scheduler scheduler;
  VirtualBus bus(scheduler);
  trace::CaptureTap tap(bus, "tap");
  constexpr int kNodes = 8;
  std::vector<std::unique_ptr<transport::VirtualBusTransport>> nodes;
  for (int i = 0; i < kNodes; ++i) {
    nodes.push_back(std::make_unique<transport::VirtualBusTransport>(
        bus, "n" + std::to_string(i)));
  }
  util::Rng rng(7);
  // One frame per node, all submitted at the same instant.
  for (int i = 0; i < kNodes; ++i) {
    const auto id = static_cast<std::uint32_t>(rng.next_below(2048));
    nodes[static_cast<std::size_t>(i)]->send(*CanFrame::data(id, {}));
  }
  scheduler.run_for(std::chrono::milliseconds(10));
  ASSERT_EQ(tap.size(), static_cast<std::size_t>(kNodes));
  for (std::size_t i = 1; i < tap.size(); ++i) {
    EXPECT_LE(tap.frames()[i - 1].frame.arbitration_rank(),
              tap.frames()[i].frame.arbitration_rank())
        << "frame " << i;
  }
}

TEST(BusProperty, InterFrameSpacingRespectsWireTime) {
  // Back-to-back frames from one node: consecutive delivery times must be
  // separated by at least the wire time of the later frame.
  sim::Scheduler scheduler;
  VirtualBus bus(scheduler);
  trace::CaptureTap tap(bus, "tap");
  transport::VirtualBusTransport tx(bus, "tx");
  util::Rng rng(9);
  std::vector<CanFrame> sent;
  for (int i = 0; i < 40; ++i) {
    std::vector<std::uint8_t> payload(rng.next_below(9));
    rng.fill(payload);
    const auto frame = *CanFrame::data(static_cast<std::uint32_t>(rng.next_below(2048)),
                                       payload);
    if (tx.send(frame)) sent.push_back(frame);
    scheduler.run_for(std::chrono::microseconds(300));
  }
  scheduler.run_for(std::chrono::milliseconds(100));
  ASSERT_EQ(tap.size(), sent.size());
  for (std::size_t i = 1; i < tap.size(); ++i) {
    const auto gap = tap.frames()[i].time - tap.frames()[i - 1].time;
    const auto wire = frame_time(tap.frames()[i].frame);
    EXPECT_GE(gap.count(), wire.count()) << i;
  }
}

TEST(BusProperty, DeterministicAcrossRuns) {
  // Two identical runs (same seeds everywhere) must produce bit-identical
  // captures with identical timestamps — the foundation of finding replay.
  auto run = [] {
    sim::Scheduler scheduler;
    BusConfig config;
    config.corruption_probability = 0.05;
    config.seed = 0xD371;
    VirtualBus bus(scheduler, config);
    trace::CaptureTap tap(bus, "tap");
    transport::VirtualBusTransport a(bus, "a");
    transport::VirtualBusTransport b(bus, "b");
    util::Rng rng(0xD372);
    for (int i = 0; i < 300; ++i) {
      std::vector<std::uint8_t> payload(rng.next_below(9));
      rng.fill(payload);
      const auto frame = *CanFrame::data(static_cast<std::uint32_t>(rng.next_below(2048)),
                                         payload);
      (rng.next_bool(0.5) ? a : b).send(frame);
      scheduler.run_for(std::chrono::microseconds(rng.next_in(100, 500)));
    }
    scheduler.run_for(std::chrono::seconds(1));
    std::string digest;
    for (const auto& entry : tap.frames()) {
      digest += sim::format_millis(entry.time);
      digest += entry.frame.to_string();
      digest += '|';
    }
    return digest;
  };
  EXPECT_EQ(run(), run());
}

TEST(BusProperty, CaptureTapRecordsExactlyWhatAListenerReceives) {
  // A capture tap must record what any accepts-all listener receives: the
  // same frames, in the same order, with the same timestamps.
  struct ListenerLog final : BusListener {
    void on_frame(const CanFrame& frame, sim::SimTime time) override {
      log.push_back({frame, time});
    }
    std::vector<trace::TimestampedFrame> log;
  };
  sim::Scheduler scheduler;
  VirtualBus bus(scheduler);
  trace::CaptureTap tap(bus, "capture-tap");
  ListenerLog listener;
  bus.attach(listener, "listener-tap", {}, /*listen_only=*/true);
  transport::VirtualBusTransport a(bus, "a");
  transport::VirtualBusTransport b(bus, "b");
  util::Rng rng(0xBA7C4);
  for (int i = 0; i < 400; ++i) {
    std::vector<std::uint8_t> payload(rng.next_below(9));
    rng.fill(payload);
    const bool extended = rng.next_bool(0.25);
    const auto id = static_cast<std::uint32_t>(
        rng.next_below(extended ? kMaxExtendedId + 1ULL : kMaxStandardId + 1ULL));
    const auto frame = *CanFrame::data(
        id, payload, extended ? IdFormat::kExtended : IdFormat::kStandard);
    (rng.next_bool(0.5) ? a : b).send(frame);
    scheduler.run_for(std::chrono::microseconds(rng.next_in(50, 400)));
  }
  scheduler.run_for(std::chrono::milliseconds(50));  // drain the bus
  const auto& captured = tap.frames();
  ASSERT_EQ(captured.size(), listener.log.size());
  for (std::size_t i = 0; i < captured.size(); ++i) {
    EXPECT_TRUE(captured[i].frame == listener.log[i].frame) << "frame " << i;
    EXPECT_EQ(captured[i].time.count(), listener.log[i].time.count()) << "frame " << i;
  }
}

TEST(BusProperty, BusyTimeNeverExceedsElapsed) {
  sim::Scheduler scheduler;
  VirtualBus bus(scheduler);
  transport::VirtualBusTransport tx(bus, "tx");
  for (int i = 0; i < 200; ++i) tx.send(CanFrame::data_std(0x100, {1, 2, 3, 4, 5, 6, 7, 8}));
  scheduler.run_for(std::chrono::milliseconds(100));
  EXPECT_LE(bus.stats().busy_time.count(), scheduler.now().count());
  EXPECT_LE(bus.stats().load(scheduler.now()), 1.0 + 1e-9);
}

}  // namespace
}  // namespace acf::can
