#include <gtest/gtest.h>

#include "obd/obd.hpp"
#include "uds/uds_client.hpp"
#include "sim/scheduler.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "vehicle/vehicle.hpp"

namespace acf::obd {
namespace {

using Bytes = std::vector<std::uint8_t>;

TEST(ObdScaling, RpmQuarterResolution) {
  EXPECT_EQ(encode_rpm(800.0), 3200u);
  EXPECT_EQ(encode_rpm(6543.25), 26173u);
  EXPECT_EQ(encode_rpm(-5.0), 0u);           // clamps
  EXPECT_EQ(encode_rpm(1e9), 65535u);
}

TEST(ObdScaling, TemperatureOffset) {
  EXPECT_EQ(encode_temp(-40.0), 0u);
  EXPECT_EQ(encode_temp(90.0), 130u);
  EXPECT_EQ(encode_temp(500.0), 255u);
}

TEST(ObdScaling, Percent) {
  EXPECT_EQ(encode_percent(100.0), 255u);
  EXPECT_EQ(encode_percent(0.0), 0u);
  EXPECT_EQ(encode_percent(40.0), 102u);
}

/// A generic scan tool built from plain ISO-TP channels.  Requests go out
/// as single frames on the functional id (0x7DF), or through the physical
/// pair (0x7E0/0x7E8), which also reassembles the response and sends the
/// flow control that a long one (the VIN) needs.
class ScanTool {
 public:
  ScanTool(sim::Scheduler& scheduler, can::VirtualBus& bus)
      : port_(bus, "scantool"),
        functional_(scheduler, send_fn(),
                    config(kObdFunctionalRequest, kObdFunctionalRequest)),
        physical_(scheduler, send_fn(), config(kObdFirstResponse - 8, kObdFirstResponse)) {
    physical_.set_on_message([this](const Bytes& payload, sim::SimTime) {
      response_ = payload;
      ++responses_;
    });
    port_.set_rx_callback(
        [this](const can::CanFrame& f, sim::SimTime t) { physical_.handle_frame(f, t); });
  }

  /// Clears the last response and broadcasts `request`.
  void request(Bytes request) {
    response_.reset();
    ASSERT_TRUE(functional_.send(std::move(request)));
  }
  /// Clears the last response and sends `request` on the physical id, as
  /// many frames as it takes.
  void request_physical(Bytes request) {
    response_.reset();
    ASSERT_TRUE(physical_.send(std::move(request)));
  }
  const std::optional<Bytes>& response() const noexcept { return response_; }
  /// Responses received since construction.
  std::size_t responses() const noexcept { return responses_; }

 private:
  static isotp::IsoTpConfig config(std::uint32_t tx, std::uint32_t rx) {
    isotp::IsoTpConfig config;
    config.tx_id = tx;
    config.rx_id = rx;
    return config;
  }
  isotp::IsoTpChannel::SendFn send_fn() {
    return [this](const can::CanFrame& f) { return port_.send(f); };
  }

  transport::VirtualBusTransport port_;
  isotp::IsoTpChannel functional_;  // sends only
  isotp::IsoTpChannel physical_;
  std::optional<Bytes> response_;
  std::size_t responses_ = 0;
};

/// Server and scan tool wired across a bus, with a scripted data source.
class ObdPair : public ::testing::Test {
 protected:
  ObdPair() {
    ObdDataSource source;
    source.rpm = [this] { return rpm; };
    source.speed_kph = [this] { return speed; };
    source.coolant_c = [this] { return coolant; };
    source.throttle_pct = [this] { return throttle; };
    source.dtcs = [this] { return dtcs; };
    source.clear_dtcs = [this] { dtcs.clear(); };
    server = std::make_unique<ObdServer>(
        scheduler, [this](const can::CanFrame& f) { return ecu_port.send(f); }, 0x7E0,
        std::move(source));
    ecu_port.set_rx_callback([this](const can::CanFrame& f, sim::SimTime t) {
      server->handle_frame(f, t);
    });
  }

  void settle() { scheduler.run_for(std::chrono::milliseconds(50)); }

  sim::Scheduler scheduler;
  can::VirtualBus bus{scheduler};
  transport::VirtualBusTransport ecu_port{bus, "ecm"};
  std::unique_ptr<ObdServer> server;
  ScanTool tool{scheduler, bus};

  double rpm = 812.5;
  double speed = 57.0;
  double coolant = 91.0;
  double throttle = 18.0;
  std::vector<std::uint16_t> dtcs;
};

TEST_F(ObdPair, Mode01Rpm) {
  tool.request({kModeCurrentData, kPidEngineRpm});
  settle();
  EXPECT_EQ(tool.response(), (Bytes{0x41, 0x0C, 0x0C, 0xB2}));  // 3250 / 4 = 812.5 rpm
}

TEST_F(ObdPair, Mode01Speed) {
  tool.request({kModeCurrentData, kPidVehicleSpeed});
  settle();
  EXPECT_EQ(tool.response(), (Bytes{0x41, 0x0D, 57}));
}

TEST_F(ObdPair, Mode01SupportBitmapAdvertisesImplementedPids) {
  tool.request({kModeCurrentData, kPidSupported01To20});
  settle();
  const auto& response = tool.response();
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, (Bytes{0x41, 0x00, 0x08, 0x18, 0x80, 0x00}));
  ASSERT_EQ(response->size(), 6u);
  const std::uint32_t bits = (static_cast<std::uint32_t>((*response)[2]) << 24) |
                             (static_cast<std::uint32_t>((*response)[3]) << 16) |
                             (static_cast<std::uint32_t>((*response)[4]) << 8) |
                             static_cast<std::uint32_t>((*response)[5]);
  for (std::uint8_t pid : {kPidCoolantTemp, kPidEngineRpm, kPidVehicleSpeed, kPidThrottle}) {
    EXPECT_TRUE((bits >> (32 - pid)) & 1u) << "pid " << int(pid);
  }
  EXPECT_FALSE((bits >> (32 - 0x02)) & 1u);  // freeze frame not implemented
}

TEST_F(ObdPair, UnsupportedPidYieldsSilence) {
  tool.request({kModeCurrentData, 0x42});
  settle();
  EXPECT_FALSE(tool.response().has_value());
}

TEST_F(ObdPair, Mode03DtcsAndMode04Clear) {
  dtcs = {0x0104, 0x0300};  // P0104, P0300
  tool.request({kModeStoredDtcs});
  settle();
  EXPECT_EQ(tool.response(), (Bytes{0x43, 0x02, 0x01, 0x04, 0x03, 0x00}));
  tool.request({kModeClearDtcs});
  settle();
  EXPECT_EQ(tool.response(), (Bytes{0x44}));
  EXPECT_TRUE(dtcs.empty());
  tool.request({kModeStoredDtcs});
  settle();
  EXPECT_EQ(tool.response(), (Bytes{0x43, 0x00}));
}

TEST_F(ObdPair, Mode09Vin) {
  tool.request({kModeVehicleInfo, kInfoVin});
  settle();
  const std::string vin = "WVWZZZ1KZAW000017";
  Bytes expected = {0x49, kInfoVin, 0x01};  // mode + 0x40, info type, record count
  expected.insert(expected.end(), vin.begin(), vin.end());
  EXPECT_EQ(tool.response(), expected);
}

TEST_F(ObdPair, SixPidRequestIsAnsweredInFull) {
  tool.request({kModeCurrentData, kPidEngineRpm, kPidVehicleSpeed, kPidCoolantTemp,
                kPidThrottle, kPidSupported01To20, kPidVehicleSpeed});
  settle();
  EXPECT_EQ(tool.response(), (Bytes{0x41, kPidEngineRpm, 0x0C, 0xB2, kPidVehicleSpeed, 57,
                                    kPidCoolantTemp, encode_temp(91.0), kPidThrottle,
                                    encode_percent(18.0), kPidSupported01To20, 0x08, 0x18,
                                    0x80, 0x00, kPidVehicleSpeed, 57}));
  EXPECT_EQ(server->malformed_requests(), 0u);
}

TEST_F(ObdPair, RequestsItCannotAnswerInFullDrawSilence) {
  // J1979 allows six PIDs per mode 01 request: 900 of them, whose answer
  // (4,501 bytes) would not fit one ISO-TP message either, go unanswered.
  Bytes too_many_pids(1 + 900, kPidSupported01To20);
  too_many_pids[0] = kModeCurrentData;
  tool.request_physical(too_many_pids);
  scheduler.run_for(std::chrono::seconds(2));
  EXPECT_FALSE(tool.response().has_value());
  EXPECT_EQ(server->malformed_requests(), 1u);

  // 216 VIN records are 4,105 bytes, over ISO-TP's 4,095-byte payload cap.
  Bytes too_many_vins(1 + 216, kInfoVin);
  too_many_vins[0] = kModeVehicleInfo;
  tool.request_physical(too_many_vins);
  scheduler.run_for(std::chrono::seconds(2));
  EXPECT_FALSE(tool.response().has_value());
  EXPECT_EQ(server->malformed_requests(), 2u);

  // Seven PIDs are one over the limit, though their answer is short.
  tool.request_physical({kModeCurrentData, kPidEngineRpm, kPidEngineRpm, kPidEngineRpm,
                         kPidEngineRpm, kPidEngineRpm, kPidEngineRpm, kPidEngineRpm});
  settle();
  EXPECT_FALSE(tool.response().has_value());
  EXPECT_EQ(server->malformed_requests(), 3u);
}

TEST_F(ObdPair, RequestDuringAnAnswerIsDroppedAndCounted) {
  // The VIN answer takes a first frame, the tool's flow control and two
  // consecutive frames; an RPM request 0.6 ms after the VIN request lands
  // while ISO-TP is still sending it.
  tool.request({kModeVehicleInfo, kInfoVin});
  scheduler.run_for(std::chrono::microseconds(600));
  tool.request({kModeCurrentData, kPidEngineRpm});
  settle();
  EXPECT_EQ(tool.responses(), 1u);
  ASSERT_TRUE(tool.response().has_value());
  EXPECT_EQ(tool.response()->at(0), kModeVehicleInfo + 0x40);
  EXPECT_EQ(server->answers_dropped(), 1u);
  EXPECT_EQ(server->malformed_requests(), 0u);

  // Once the VIN is out, the same request is answered.
  tool.request({kModeCurrentData, kPidEngineRpm});
  settle();
  EXPECT_EQ(tool.responses(), 2u);
  EXPECT_EQ(tool.response(), (Bytes{0x41, 0x0C, 0x0C, 0xB2}));
  EXPECT_EQ(server->answers_dropped(), 1u);
}

TEST_F(ObdPair, UdsSidsIgnoredSilently) {
  // A UDS session-control request on the shared id must not draw an OBD
  // response (the UDS stack owns it).
  const auto before = server->malformed_requests();
  tool.request({0x10, 0x03});
  settle();
  EXPECT_EQ(server->malformed_requests(), before);
  EXPECT_FALSE(tool.response().has_value());
}

TEST(ObdOnVehicle, ScanToolReadsLiveEngineData) {
  // Full integration: scan tool on the body bus reaches the ECM through the
  // gateway (0x7DF functional broadcast is whitelisted).
  sim::Scheduler scheduler;
  vehicle::Vehicle car(scheduler);
  scheduler.run_for(std::chrono::seconds(45));  // cruise phase

  ScanTool tool(scheduler, car.body_bus());
  tool.request({kModeCurrentData, kPidEngineRpm});
  scheduler.run_for(std::chrono::milliseconds(100));
  const auto& rpm = tool.response();
  ASSERT_TRUE(rpm.has_value());
  ASSERT_EQ(rpm->size(), 4u);
  EXPECT_EQ((*rpm)[0], 0x41);
  EXPECT_EQ((*rpm)[1], kPidEngineRpm);
  EXPECT_NEAR((((*rpm)[2] << 8) | (*rpm)[3]) / 4.0, car.engine().rpm(), 100.0);

  tool.request({kModeVehicleInfo, kInfoVin});
  scheduler.run_for(std::chrono::milliseconds(100));
  const auto& vin = tool.response();
  ASSERT_TRUE(vin.has_value());
  ASSERT_GE(vin->size(), 4u);
  EXPECT_EQ((*vin)[0], 0x49);
  EXPECT_EQ((*vin)[1], kInfoVin);
}

TEST(ObdOnVehicle, UdsAndObdCoexistOnTheSharedIds) {
  sim::Scheduler scheduler;
  vehicle::Vehicle car(scheduler);
  scheduler.run_for(std::chrono::seconds(1));

  transport::VirtualBusTransport tool(car.powertrain_bus(), "tester");
  isotp::IsoTpConfig isotp_config;
  isotp_config.tx_id = dbc::kUdsEngineRequest;
  isotp_config.rx_id = dbc::kUdsEngineResponse;
  uds::UdsClient uds_client(
      scheduler, [&tool](const can::CanFrame& f) { return tool.send(f); }, isotp_config);
  tool.set_rx_callback([&uds_client](const can::CanFrame& f, sim::SimTime t) {
    uds_client.handle_frame(f, t);
  });
  uds_client.start_session(0x03);
  scheduler.run_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(uds_client.last_response().has_value());
  EXPECT_TRUE(uds_client.last_response()->positive());
  EXPECT_EQ(car.engine().uds_server()->session(), uds::Session::kExtended);
}

}  // namespace
}  // namespace acf::obd
