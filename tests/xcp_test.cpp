#include <gtest/gtest.h>

#include <array>

#include "sim/scheduler.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "vehicle/instrument_cluster.hpp"
#include "xcp/xcp.hpp"

namespace acf::xcp {
namespace {

/// Master + slave over a bus with a small scripted memory.
class XcpPair : public ::testing::Test {
 protected:
  XcpPair() {
    XcpMemoryMap map;
    map.read_byte = [this](std::uint32_t address) -> std::optional<std::uint8_t> {
      if (address >= 0x100 && address < 0x100 + memory.size()) {
        return memory[address - 0x100];
      }
      return std::nullopt;
    };
    map.write_byte = [this](std::uint32_t address, std::uint8_t value) {
      if (address >= 0x100 && address < 0x100 + memory.size()) {
        memory[address - 0x100] = value;
        return true;
      }
      return false;
    };
    slave = std::make_unique<XcpSlave>(
        0x6C0, 0x6C1, std::move(map),
        [this](const can::CanFrame& f) { return slave_port.send(f); });
    slave_port.set_rx_callback(
        [this](const can::CanFrame& f, sim::SimTime t) { slave->handle_frame(f, t); });
    master = std::make_unique<XcpMaster>(
        0x6C0, 0x6C1, [this](const can::CanFrame& f) { return master_port.send(f); });
    master_port.set_rx_callback(
        [this](const can::CanFrame& f, sim::SimTime t) { master->handle_frame(f, t); });
  }

  void settle() { scheduler.run_for(std::chrono::milliseconds(5)); }

  sim::Scheduler scheduler;
  can::VirtualBus bus{scheduler};
  transport::VirtualBusTransport slave_port{bus, "ecu"};
  transport::VirtualBusTransport master_port{bus, "tool"};
  std::unique_ptr<XcpSlave> slave;
  std::unique_ptr<XcpMaster> master;
  std::array<std::uint8_t, 16> memory = {0xDE, 0xAD, 0xBE, 0xEF, 4, 5, 6, 7,
                                         8,    9,    10,   11,   12, 13, 14, 15};
};

TEST_F(XcpPair, ConnectDisconnect) {
  EXPECT_FALSE(slave->connected());
  master->connect();
  settle();
  EXPECT_TRUE(slave->connected());
  ASSERT_TRUE(master->last_data().has_value());
  master_port.send(*can::CanFrame::data(0x6C0, {kCmdDisconnect}));
  settle();
  EXPECT_EQ(master->last_data(), std::vector<std::uint8_t>{});  // positive, no data
  EXPECT_FALSE(slave->connected());
}

TEST_F(XcpPair, CommandsBeforeConnectRejected) {
  master->short_upload(0x100, 4);
  settle();
  ASSERT_TRUE(master->last_error().has_value());
  EXPECT_EQ(*master->last_error(), kErrNotConnected);
}

TEST_F(XcpPair, ShortUploadReadsMemory) {
  master->connect();
  settle();
  master->short_upload(0x100, 4);
  settle();
  ASSERT_TRUE(master->last_data().has_value());
  EXPECT_EQ(*master->last_data(), (std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE, 0xEF}));
  EXPECT_EQ(XcpMaster::as_u32(master->last_data()).value(), 0xEFBEADDEu);
}

TEST_F(XcpPair, SetMtaUploadWalksMemory) {
  master->connect();
  settle();
  master->set_mta(0x104);
  settle();
  master_port.send(*can::CanFrame::data(0x6C0, {kCmdUpload, 3}));
  settle();
  ASSERT_TRUE(master->last_data().has_value());
  EXPECT_EQ(*master->last_data(), (std::vector<std::uint8_t>{4, 5, 6}));
  master_port.send(*can::CanFrame::data(0x6C0, {kCmdUpload, 2}));  // MTA auto-advanced
  settle();
  EXPECT_EQ(*master->last_data(), (std::vector<std::uint8_t>{7, 8}));
}

TEST_F(XcpPair, UnmappedAddressErrors) {
  master->connect();
  settle();
  master->short_upload(0x9000, 2);
  settle();
  ASSERT_TRUE(master->last_error().has_value());
  EXPECT_EQ(*master->last_error(), kErrOutOfRange);
}

TEST_F(XcpPair, DownloadWritesMemory) {
  master->connect();
  settle();
  master->set_mta(0x102);
  settle();
  const std::uint8_t patch[2] = {0x11, 0x22};
  master->download(0x102, patch);
  settle();
  ASSERT_TRUE(master->last_data().has_value());
  EXPECT_EQ(memory[2], 0x11);
  EXPECT_EQ(memory[3], 0x22);
  EXPECT_EQ(slave->bytes_written(), 2u);
}

TEST_F(XcpPair, MalformedCommandsGetSyntaxErrors) {
  master->connect();
  settle();
  // Raw frames with bad shapes.
  master_port.send(*can::CanFrame::data(0x6C0, {kCmdShortUpload, 0}));  // n = 0
  settle();
  master_port.send(*can::CanFrame::data(0x6C0, {kCmdUpload, 9}));  // n > 7
  settle();
  master_port.send(*can::CanFrame::data(0x6C0, {0x42}));  // unknown command
  settle();
  EXPECT_GE(slave->errors_sent(), 3u);
}

TEST(XcpCluster, InstrumentClusterMemoryMap) {
  // Read the cluster's live gauges through its XCP endpoint — the
  // simulator-internal monitoring channel from the paper's oracle list.
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  vehicle::InstrumentCluster cluster(scheduler, bus);
  transport::VirtualBusTransport sender(bus, "sender");
  const dbc::Database db = dbc::target_vehicle_database();
  sender.send(*db.by_id(dbc::kMsgEngineData)->encode({{"EngineRPM", 2500.0}}));
  scheduler.run_for(std::chrono::milliseconds(5));

  transport::VirtualBusTransport tool(bus, "xcp-tool");
  XcpMaster master(vehicle::InstrumentCluster::kXcpRxId,
                   vehicle::InstrumentCluster::kXcpTxId,
                   [&tool](const can::CanFrame& f) { return tool.send(f); });
  tool.set_rx_callback(
      [&master](const can::CanFrame& f, sim::SimTime t) { master.handle_frame(f, t); });

  master.connect();
  scheduler.run_for(std::chrono::milliseconds(5));
  master.short_upload(vehicle::InstrumentCluster::kXcpAddrRpm, 4);
  scheduler.run_for(std::chrono::milliseconds(5));
  const auto rpm = XcpMaster::as_u32(master.last_data());
  ASSERT_TRUE(rpm.has_value());
  EXPECT_EQ(*rpm, 2500u);

  // Status flags: MIL off, no crash.
  master.short_upload(vehicle::InstrumentCluster::kXcpAddrFlags, 1);
  scheduler.run_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(master.last_data().has_value());
  EXPECT_EQ((*master.last_data())[0], 0u);
}

}  // namespace
}  // namespace acf::xcp
