#include <gtest/gtest.h>

#include <vector>

#include "sim/scheduler.hpp"
#include "transport/socketcan_transport.hpp"
#include "transport/virtual_bus_transport.hpp"

namespace acf::transport {
namespace {

class TransportTest : public ::testing::Test {
 protected:
  sim::Scheduler scheduler;
  can::VirtualBus bus{scheduler};
};

TEST_F(TransportTest, SendAndReceiveThroughBus) {
  VirtualBusTransport a(bus, "a");
  VirtualBusTransport b(bus, "b");
  std::vector<can::CanFrame> received;
  b.set_rx_callback([&](const can::CanFrame& frame, sim::SimTime) {
    received.push_back(frame);
  });
  const auto frame = can::CanFrame::data_std(0x215, {0x20, 0x5F});
  EXPECT_TRUE(a.send(frame));
  scheduler.run_for(std::chrono::milliseconds(1));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], frame);
  EXPECT_EQ(a.stats().frames_sent, 1u);
  EXPECT_EQ(b.stats().frames_received, 1u);
}

TEST_F(TransportTest, NamePrefixed) {
  VirtualBusTransport t(bus, "fuzzer");
  EXPECT_EQ(t.name(), "vbus:fuzzer");
}

TEST_F(TransportTest, ListenOnlyTransportCannotSend) {
  VirtualBusTransport tap(bus, "tap", {}, /*listen_only=*/true);
  EXPECT_FALSE(tap.send(can::CanFrame::data_std(0x100, {})));
  EXPECT_EQ(tap.stats().send_failures, 1u);
}

TEST_F(TransportTest, FiltersRestrictReception) {
  VirtualBusTransport a(bus, "a");
  VirtualBusTransport b(bus, "b", can::FilterBank{can::IdMaskFilter::exact(0x300)});
  int count = 0;
  b.set_rx_callback([&](const can::CanFrame&, sim::SimTime) { ++count; });
  a.send(can::CanFrame::data_std(0x300, {}));
  a.send(can::CanFrame::data_std(0x301, {}));
  scheduler.run_for(std::chrono::milliseconds(1));
  EXPECT_EQ(count, 1);
}

TEST_F(TransportTest, DetachOnDestruction) {
  {
    VirtualBusTransport temp(bus, "temp");
    EXPECT_EQ(bus.node_count(), 1u);
  }
  EXPECT_EQ(bus.node_count(), 0u);
}

// ---------------------------------------------------------- SocketCAN ----

TEST(SocketCanTransport, OpenNonexistentInterfaceFailsGracefully) {
  SocketCanTransport transport;
  EXPECT_FALSE(transport.open("acf-does-not-exist-0"));
  EXPECT_FALSE(transport.is_open());
  EXPECT_FALSE(transport.last_error().empty());
  EXPECT_FALSE(transport.send(can::CanFrame::data_std(0x1, {})));
  EXPECT_EQ(transport.pump(0), 0u);
}

TEST(SocketCanTransport, LoopbackWhenInterfaceAvailable) {
  // Runs for real only where a vcan/can interface exists (not creatable in
  // this sandbox); otherwise verifies the graceful-skip path.
  SocketCanTransport tx;
  if (!tx.open("vcan0")) {
    GTEST_SKIP() << "no vcan0 interface: " << tx.last_error();
  }
  SocketCanTransport rx;
  ASSERT_TRUE(rx.open("vcan0"));
  std::vector<can::CanFrame> received;
  rx.set_rx_callback([&](const can::CanFrame& f, sim::SimTime) { received.push_back(f); });
  const auto frame = can::CanFrame::data_std(0x123, {0xDE, 0xAD});
  ASSERT_TRUE(tx.send(frame));
  rx.pump(500);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], frame);
}

}  // namespace
}  // namespace acf::transport
