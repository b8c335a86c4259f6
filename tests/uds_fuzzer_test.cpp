#include <gtest/gtest.h>

#include "fuzzer/generator.hpp"
#include "fuzzer/coverage.hpp"
#include "fuzzer/uds_fuzzer.hpp"
#include "sim/scheduler.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "vehicle/instrument_cluster.hpp"

namespace acf::fuzzer {
namespace {

/// UDS fuzzer pointed at the instrument cluster's diagnostic endpoint.
class UdsFuzzerTest : public ::testing::Test {
 protected:
  UdsFuzzerTest()
      : cluster(scheduler, bus), port(bus, "fuzzer"),
        fuzzer(scheduler, port, dbc::kUdsClusterRequest, dbc::kUdsClusterResponse) {}

  sim::Scheduler scheduler;
  can::VirtualBus bus{scheduler};
  vehicle::InstrumentCluster cluster;
  transport::VirtualBusTransport port;
  UdsFuzzer fuzzer;
};

TEST_F(UdsFuzzerTest, ServiceScanDiscoversImplementedServices) {
  UdsFuzzReport report;
  fuzzer.scan_services(report);
  const auto sids = report.discovered_sids();
  // Everything the cluster's UDS server implements must be discovered.
  for (std::uint8_t expected : {uds::kSidDiagnosticSessionControl, uds::kSidEcuReset,
                                uds::kSidReadDataByIdentifier, uds::kSidSecurityAccess,
                                uds::kSidWriteDataByIdentifier, uds::kSidTesterPresent,
                                uds::kSidReadDtcInformation}) {
    EXPECT_NE(std::find(sids.begin(), sids.end(), expected), sids.end())
        << "SID 0x" << std::hex << int(expected);
  }
  // And nothing invented: SIDs the server rejects outright stay undiscovered.
  EXPECT_EQ(std::find(sids.begin(), sids.end(), 0x23), sids.end());
  EXPECT_GT(report.requests_sent, 2u * 0xC0 - 1);
}

TEST_F(UdsFuzzerTest, DidSweepFindsIdentificationDids) {
  UdsFuzzReport report;
  fuzzer.discover_dids(report, 0xF180, 0xF1A0);
  EXPECT_NE(std::find(report.readable_dids.begin(), report.readable_dids.end(), 0xF190),
            report.readable_dids.end());
  EXPECT_NE(std::find(report.readable_dids.begin(), report.readable_dids.end(), 0xF195),
            report.readable_dids.end());
  EXPECT_EQ(report.readable_dids.size(), 2u);
}

TEST_F(UdsFuzzerTest, RandomFuzzFindsNoProtocolAnomaliesInHealthyServer) {
  UdsFuzzReport report;
  fuzzer.random_fuzz(report, 300);
  EXPECT_TRUE(report.anomalies.empty())
      << (report.anomalies.empty() ? "" : report.anomalies[0]);
  // The server survives: still answers a legitimate request.
  UdsFuzzReport after;
  fuzzer.discover_dids(after, 0xF190, 0xF190);
  EXPECT_EQ(after.readable_dids.size(), 1u);
}

TEST_F(UdsFuzzerTest, FullRunProducesConsistentReport) {
  const UdsFuzzReport report = fuzzer.run();
  EXPECT_GE(report.discovered_sids().size(), 7u);
  EXPECT_GE(report.readable_dids.size(), 2u);
  EXPECT_GT(report.requests_sent, 500u);
}

TEST(UdsServiceInfo, ExistsSemantics) {
  UdsServiceInfo info;
  EXPECT_FALSE(info.exists());
  info.nrcs[uds::kNrcServiceNotSupported] = 5;
  EXPECT_FALSE(info.exists());  // "not supported" is non-existence
  info.nrcs[uds::kNrcIncorrectLength] = 1;
  EXPECT_TRUE(info.exists());   // any other NRC proves the handler exists
  UdsServiceInfo positive;
  positive.positive = 1;
  EXPECT_TRUE(positive.exists());
}

// ----------------------------------------------------------- coverage -----

TEST(CoverageTracker, TracksIdsCellsAndBytes) {
  CoverageTracker tracker;
  tracker.add(can::CanFrame::data_std(0x100, {0x01, 0x02}));
  tracker.add(can::CanFrame::data_std(0x100, {0x03}));
  tracker.add(can::CanFrame::data_std(0x200, {}));
  EXPECT_EQ(tracker.frames(), 3u);
  EXPECT_EQ(tracker.ids_covered(), 2u);
  EXPECT_EQ(tracker.id_dlc_cells_covered(), 3u);  // (100,2) (100,1) (200,0)
}

TEST(CoverageTracker, RandomCampaignCoversTheSpace) {
  CoverageTracker tracker;
  const FuzzConfig config = FuzzConfig::full_random(0xC043);
  RandomGenerator generator(config);
  for (int i = 0; i < 50'000; ++i) tracker.add(*generator.next());
  // 50k uniform draws over 2048 ids: every id expected ~24 times.
  EXPECT_GT(tracker.ids_covered(), 2027u);  // more than 99%
}

}  // namespace
}  // namespace acf::fuzzer
