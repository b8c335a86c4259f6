#include <gtest/gtest.h>

#include <tuple>

#include "isotp/isotp.hpp"
#include "sim/scheduler.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "util/rng.hpp"

namespace acf::isotp {
namespace {

/// Two ISO-TP endpoints wired across a virtual bus.
class IsoTpPair : public ::testing::Test {
 protected:
  IsoTpPair() { wire(); }

  void wire(IsoTpConfig client_config = {}, IsoTpConfig server_config = {}) {
    client_config.tx_id = 0x7E0;
    client_config.rx_id = 0x7E8;
    server_config.tx_id = 0x7E8;
    server_config.rx_id = 0x7E0;
    client = std::make_unique<IsoTpChannel>(
        scheduler, [this](const can::CanFrame& f) { return client_port.send(f); },
        client_config);
    server = std::make_unique<IsoTpChannel>(
        scheduler, [this](const can::CanFrame& f) { return server_port.send(f); },
        server_config);
    client_port.set_rx_callback([this](const can::CanFrame& f, sim::SimTime t) {
      client->handle_frame(f, t);
    });
    server_port.set_rx_callback([this](const can::CanFrame& f, sim::SimTime t) {
      server->handle_frame(f, t);
    });
    server->set_on_message([this](const std::vector<std::uint8_t>& payload, sim::SimTime) {
      received.push_back(payload);
    });
  }

  sim::Scheduler scheduler;
  can::VirtualBus bus{scheduler};
  transport::VirtualBusTransport client_port{bus, "client"};
  transport::VirtualBusTransport server_port{bus, "server"};
  std::unique_ptr<IsoTpChannel> client;
  std::unique_ptr<IsoTpChannel> server;
  std::vector<std::vector<std::uint8_t>> received;
};

TEST_F(IsoTpPair, SingleFrameDelivery) {
  EXPECT_TRUE(client->send({1, 2, 3}));
  scheduler.run_for(std::chrono::milliseconds(10));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(client->stats().messages_sent, 1u);
  EXPECT_EQ(server->stats().messages_received, 1u);
}

TEST_F(IsoTpPair, SevenBytesIsStillSingleFrame) {
  client->send(std::vector<std::uint8_t>(7, 0xAA));
  scheduler.run_for(std::chrono::milliseconds(10));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(client->stats().frames_sent, 1u);
}

TEST_F(IsoTpPair, MultiFrameDelivery) {
  std::vector<std::uint8_t> payload(100);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i);
  }
  EXPECT_TRUE(client->send(payload));
  scheduler.run_for(std::chrono::seconds(1));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], payload);
  // FF + 14 CFs (6 + 14*7 = 104 >= 100).
  EXPECT_EQ(client->stats().frames_sent, 1u + 14u);
}

TEST_F(IsoTpPair, RejectsOversizedAndConcurrentSends) {
  EXPECT_FALSE(client->send(std::vector<std::uint8_t>(kMaxPayload + 1, 0)));
  EXPECT_TRUE(client->send(std::vector<std::uint8_t>(100, 0)));
  EXPECT_TRUE(client->tx_busy());
  EXPECT_FALSE(client->send({1}));  // transfer already in flight
  scheduler.run_for(std::chrono::seconds(1));
  EXPECT_FALSE(client->tx_busy());
}

TEST_F(IsoTpPair, TxDoneCallbackOnSuccess) {
  bool ok = false;
  int calls = 0;
  client->set_on_tx_done([&](bool success) {
    ok = success;
    ++calls;
  });
  client->send(std::vector<std::uint8_t>(50, 1));
  scheduler.run_for(std::chrono::seconds(1));
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(ok);
}

TEST_F(IsoTpPair, NoFlowControlTimesOutAndAborts) {
  // Cut the server->client direction so FC never arrives.
  client_port.set_rx_callback({});
  bool ok = true;
  client->set_on_tx_done([&](bool success) { ok = success; });
  client->send(std::vector<std::uint8_t>(100, 1));
  scheduler.run_for(std::chrono::seconds(3));
  EXPECT_FALSE(ok);
  EXPECT_EQ(client->stats().tx_aborts, 1u);
  EXPECT_FALSE(client->tx_busy());  // channel usable again
  EXPECT_TRUE(client->send({1}));
}

class IsoTpSizeSweep : public IsoTpPair,
                       public ::testing::WithParamInterface<std::size_t> {};

TEST_P(IsoTpSizeSweep, PayloadRoundTrip) {
  std::vector<std::uint8_t> payload(GetParam());
  util::Rng rng(GetParam() + 1);
  rng.fill(payload);
  ASSERT_TRUE(client->send(payload));
  scheduler.run_for(std::chrono::seconds(30));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, IsoTpSizeSweep,
                         ::testing::Values(1, 6, 7, 8, 12, 13, 62, 63, 64, 100, 500, 4095));

class IsoTpFlowControlGrid
    : public ::testing::TestWithParam<std::tuple<std::uint8_t, std::uint8_t>> {};

TEST_P(IsoTpFlowControlGrid, BlockSizeAndStMinHonoured) {
  const auto [block_size, st_min] = GetParam();
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  transport::VirtualBusTransport client_port(bus, "client");
  transport::VirtualBusTransport server_port(bus, "server");

  IsoTpConfig client_config;
  client_config.tx_id = 0x7E0;
  client_config.rx_id = 0x7E8;
  IsoTpConfig server_config;
  server_config.tx_id = 0x7E8;
  server_config.rx_id = 0x7E0;
  server_config.block_size = block_size;
  server_config.st_min_ms = st_min;

  IsoTpChannel client(scheduler,
                      [&](const can::CanFrame& f) { return client_port.send(f); },
                      client_config);
  IsoTpChannel server(scheduler,
                      [&](const can::CanFrame& f) { return server_port.send(f); },
                      server_config);
  client_port.set_rx_callback(
      [&](const can::CanFrame& f, sim::SimTime t) { client.handle_frame(f, t); });
  server_port.set_rx_callback(
      [&](const can::CanFrame& f, sim::SimTime t) { server.handle_frame(f, t); });

  std::vector<std::vector<std::uint8_t>> received;
  server.set_on_message([&](const std::vector<std::uint8_t>& payload, sim::SimTime) {
    received.push_back(payload);
  });

  std::vector<std::uint8_t> payload(300);
  util::Rng rng(42);
  rng.fill(payload);
  ASSERT_TRUE(client.send(payload));
  scheduler.run_for(std::chrono::seconds(60));
  ASSERT_EQ(received.size(), 1u) << "BS=" << unsigned(block_size)
                                 << " STmin=" << unsigned(st_min);
  EXPECT_EQ(received[0], payload);
}

INSTANTIATE_TEST_SUITE_P(Grid, IsoTpFlowControlGrid,
                         ::testing::Combine(::testing::Values(0, 1, 2, 8, 15),
                                            ::testing::Values(0, 1, 5, 20)));

TEST_F(IsoTpPair, SequenceErrorAborts) {
  // Speak raw protocol at the server: FF announcing 20 bytes, then a CF
  // with the wrong sequence number.
  transport::VirtualBusTransport raw(bus, "raw");
  raw.send(*can::CanFrame::data(0x7E0, {0x10, 20, 1, 2, 3, 4, 5, 6}));
  scheduler.run_for(std::chrono::milliseconds(5));
  raw.send(*can::CanFrame::data(0x7E0, {0x23, 7, 8, 9, 10, 11, 12, 13}));  // seq 3, not 1
  scheduler.run_for(std::chrono::milliseconds(5));
  EXPECT_EQ(server->stats().rx_aborts, 1u);
  EXPECT_TRUE(received.empty());
}

TEST_F(IsoTpPair, ResetDropsTransfersInBothDirections) {
  // The server is half-way through receiving 20 bytes, and the client is
  // waiting for flow control that never comes.
  transport::VirtualBusTransport raw(bus, "raw");
  raw.send(*can::CanFrame::data(0x7E0, {0x10, 20, 1, 2, 3, 4, 5, 6}));
  client_port.set_rx_callback({});
  client->send(std::vector<std::uint8_t>(30, 1));
  scheduler.run_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(client->tx_busy());
  bool done_reported = false;
  client->set_on_tx_done([&](bool) { done_reported = true; });

  server->reset();
  client->reset();
  EXPECT_FALSE(client->tx_busy());
  EXPECT_EQ(client->stats().frames_sent, 0u);
  EXPECT_EQ(client->stats().tx_aborts, 0u);
  // The rest of the old transfer is now a stray consecutive frame, and the
  // old timeouts are gone.
  raw.send(*can::CanFrame::data(0x7E0, {0x21, 7, 8, 9, 10, 11, 12, 13}));
  scheduler.run_for(std::chrono::seconds(3));
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(server->stats().malformed_frames, 1u);
  EXPECT_EQ(server->stats().rx_aborts, 0u);
  EXPECT_EQ(client->stats().tx_aborts, 0u);
  EXPECT_FALSE(done_reported);
}

TEST_F(IsoTpPair, MalformedPciCounted) {
  transport::VirtualBusTransport raw(bus, "raw");
  raw.send(*can::CanFrame::data(0x7E0, {0x40, 1, 2}));  // PCI type 4: undefined
  raw.send(*can::CanFrame::data(0x7E0, {0x00}));        // SF with length 0
  scheduler.run_for(std::chrono::milliseconds(5));
  EXPECT_EQ(server->stats().malformed_frames, 2u);
}

TEST_F(IsoTpPair, PaddingAppliedToProtocolFrames) {
  std::vector<can::CanFrame> seen;
  transport::VirtualBusTransport tap(bus, "tap", can::FilterBank{can::IdMaskFilter::exact(0x7E0)},
                                     true);
  tap.set_rx_callback([&](const can::CanFrame& f, sim::SimTime) { seen.push_back(f); });
  client->send({1, 2, 3});
  scheduler.run_for(std::chrono::milliseconds(5));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].length(), 8u);  // padded to full DLC
  EXPECT_EQ(seen[0].payload()[7], client->config().pad_byte);
}

TEST_F(IsoTpPair, NewFirstFramePreemptsStalledReception) {
  transport::VirtualBusTransport raw(bus, "raw");
  raw.send(*can::CanFrame::data(0x7E0, {0x10, 50, 1, 2, 3, 4, 5, 6}));
  scheduler.run_for(std::chrono::milliseconds(5));
  // A second FF starts a fresh transfer; the first is abandoned.
  raw.send(*can::CanFrame::data(0x7E0, {0x10, 9, 9, 9, 9, 9, 9, 9}));
  scheduler.run_for(std::chrono::milliseconds(5));
  raw.send(*can::CanFrame::data(0x7E0, {0x21, 9, 9, 9}));
  scheduler.run_for(std::chrono::milliseconds(5));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].size(), 9u);
  EXPECT_EQ(server->stats().rx_aborts, 1u);
}

TEST_F(IsoTpPair, ShortConsecutiveFrameDoesNotConsumeSequence) {
  // A CF with no data bytes used to be accepted: it consumed nothing but
  // also stalled nothing, and a CF whose PCI promises data it doesn't carry
  // must not advance the sequence window.
  transport::VirtualBusTransport raw(bus, "raw");
  raw.send(*can::CanFrame::data(0x7E0, {0x10, 20, 1, 2, 3, 4, 5, 6}));
  scheduler.run_for(std::chrono::milliseconds(5));
  raw.send(*can::CanFrame::data(0x7E0, {0x21}));  // CF with zero data bytes
  scheduler.run_for(std::chrono::milliseconds(5));
  EXPECT_EQ(server->stats().malformed_frames, 1u);
  EXPECT_TRUE(received.empty());
  // The real seq-1 and seq-2 CFs still complete the transfer.
  raw.send(*can::CanFrame::data(0x7E0, {0x21, 7, 8, 9, 10, 11, 12, 13}));
  scheduler.run_for(std::chrono::milliseconds(5));
  raw.send(*can::CanFrame::data(0x7E0, {0x22, 14, 15, 16, 17, 18, 19, 20}));
  scheduler.run_for(std::chrono::milliseconds(5));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].size(), 20u);
  EXPECT_EQ(server->stats().rx_aborts, 0u);
}

/// A lone channel fed raw frames directly: the peer is the test, so it can
/// misbehave in ways the well-formed IsoTpPair endpoints never would.
class IsoTpHostilePeer : public ::testing::Test {
 protected:
  IsoTpHostilePeer()
      : channel(scheduler, [this](const can::CanFrame& f) {
          sent.push_back(f);
          return true;
        }, config) {}

  void inject(std::initializer_list<std::uint8_t> payload) {
    channel.handle_frame(*can::CanFrame::data(config.rx_id, payload), scheduler.now());
  }

  sim::Scheduler scheduler;
  IsoTpConfig config;
  std::vector<can::CanFrame> sent;
  IsoTpChannel channel;
};

TEST_F(IsoTpHostilePeer, FcWaitFloodAbortsAtNwftMax) {
  // Regression: a peer answering every pause with FlowControl-Wait used to
  // re-arm the tx timeout forever, pinning the transmitter in
  // kAwaitingFlowControl for as long as the flood lasted (livelock).
  ASSERT_TRUE(channel.send(std::vector<std::uint8_t>(100, 0x11)));
  EXPECT_TRUE(channel.tx_busy());
  int waits_sent = 0;
  for (; waits_sent < 50 && channel.tx_busy(); ++waits_sent) {
    inject({0x31, 0x00, 0x00});  // FC Wait
    scheduler.run_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(channel.tx_busy());
  EXPECT_EQ(waits_sent, config.max_fc_waits + 1);  // N_WFTmax tolerated, next aborts
  EXPECT_EQ(channel.stats().fc_wait_aborts, 1u);
  EXPECT_EQ(channel.stats().tx_aborts, 1u);
  EXPECT_EQ(sent.size(), 1u);  // only the FF ever went out
}

TEST_F(IsoTpHostilePeer, FcContinueResetsTheWaitBudget) {
  ASSERT_TRUE(channel.send(std::vector<std::uint8_t>(100, 0x22)));
  for (int round = 0; round < 3; ++round) {
    // Stay just under N_WFTmax, then continue with a block size of 1 so the
    // transfer pauses for flow control again.
    for (int i = 0; i < config.max_fc_waits; ++i) inject({0x31, 0x00, 0x00});
    ASSERT_TRUE(channel.tx_busy());
    inject({0x30, 0x01, 0x00});
    scheduler.run_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(channel.stats().fc_wait_aborts, 0u);  // budget is per pause, not per transfer
  EXPECT_TRUE(channel.tx_busy());
  inject({0x30, 0x00, 0x00});  // unlimited block: let it finish
  scheduler.run_for(std::chrono::seconds(1));
  EXPECT_FALSE(channel.tx_busy());
  EXPECT_EQ(channel.stats().messages_sent, 1u);
}

TEST_F(IsoTpHostilePeer, TruncatedFlowControlCountedNotTrusted) {
  ASSERT_TRUE(channel.send(std::vector<std::uint8_t>(100, 0x33)));
  inject({0x30});        // FC whose PCI promises BS and STmin it doesn't carry
  inject({0x31, 0x00});  // Wait missing its STmin byte
  EXPECT_EQ(channel.stats().malformed_frames, 2u);
  EXPECT_TRUE(channel.tx_busy());  // neither moved the state machine
  scheduler.run_for(config.timeout + std::chrono::milliseconds(10));
  EXPECT_FALSE(channel.tx_busy());  // N_Bs timeout cleaned up
  EXPECT_EQ(channel.stats().tx_aborts, 1u);
}

TEST_F(IsoTpHostilePeer, ReservedStMinFallsBackToMaximumPacing) {
  // STmin 0x80..0xF0 and 0xFA..0xFF are reserved; ISO 15765-2 says treat
  // them as the longest valid separation time (127 ms), not as garbage.
  ASSERT_TRUE(channel.send(std::vector<std::uint8_t>(20, 0x44)));
  ASSERT_EQ(sent.size(), 1u);                       // FF
  inject({0x30, 0x00, 0x80});                       // reserved STmin
  EXPECT_EQ(sent.size(), 2u);                       // first CF goes out at once
  scheduler.run_for(std::chrono::milliseconds(126));
  EXPECT_EQ(sent.size(), 2u);                       // still pacing
  scheduler.run_for(std::chrono::milliseconds(2));
  EXPECT_EQ(sent.size(), 3u);                       // second CF after 127 ms
  EXPECT_FALSE(channel.tx_busy());
}

TEST_F(IsoTpPair, OtherIdsIgnored) {
  transport::VirtualBusTransport raw(bus, "raw");
  raw.send(*can::CanFrame::data(0x7E1, {0x02, 1, 2}));  // not our rx id
  scheduler.run_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(received.empty());
  EXPECT_EQ(server->stats().malformed_frames, 0u);
}

}  // namespace
}  // namespace acf::isotp
