// Robustness suite: the framework's own parsers and servers fuzzed with
// hostile random input.  A fuzz-testing framework whose parsers crash on
// malformed input would fail its own lesson (§III-B3: untested code paths
// are the attack surface).
#include <gtest/gtest.h>

#include <sstream>

#include "can/wire_codec.hpp"
#include "dbc/parser.hpp"
#include "sim/scheduler.hpp"
#include "trace/candump_log.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "uds/uds_server.hpp"
#include "util/rng.hpp"
#include "vehicle/vehicle.hpp"

namespace acf {
namespace {

std::string random_text(util::Rng& rng, std::size_t length) {
  static constexpr char kAlphabet[] =
      "BO_ SG_ BU_: BA_ 0123456789ABCDEFabcdef @+-|[](),.\"; \n\t_xX";
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(kAlphabet[rng.next_below(sizeof kAlphabet - 1)]);
  }
  return out;
}

TEST(Robustness, DbcParserSurvivesRandomText) {
  util::Rng rng(0xDBC);
  for (int trial = 0; trial < 300; ++trial) {
    const auto result = dbc::parse_dbc(random_text(rng, 400));
    // Whatever loaded must be structurally sound.
    for (const auto& message : result.database.messages()) {
      EXPECT_LE(message.dlc, can::kMaxClassicPayload);
      for (const auto& sig : message.signals) {
        EXPECT_TRUE(sig.fits(message.dlc)) << message.name << "." << sig.name;
      }
    }
  }
}

TEST(Robustness, DbcParserSurvivesMutatedValidText) {
  // Mutate a valid DBC file byte-by-byte: the parser must never accept a
  // signal that does not fit its message.
  const std::string valid = dbc::target_vehicle_dbc_text();
  util::Rng rng(0xDBD);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = valid;
    for (int i = 0; i < 5; ++i) {
      mutated[static_cast<std::size_t>(rng.next_below(mutated.size()))] =
          static_cast<char>(rng.next_in(32, 126));
    }
    const auto result = dbc::parse_dbc(mutated);
    for (const auto& message : result.database.messages()) {
      for (const auto& sig : message.signals) {
        EXPECT_TRUE(sig.fits(message.dlc));
      }
    }
  }
}

TEST(Robustness, WireDecoderSurvivesRandomBitStreams) {
  // Random bit soup: the decoder must reject or return a valid frame —
  // and any frame it does return must re-encode to a decodable image.
  util::Rng rng(0xB175);
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    can::BitVec bits(20 + rng.next_below(140));
    for (auto& bit : bits) bit = static_cast<std::uint8_t>(rng.next_bool(0.5));
    const auto frame = can::decode_wire(bits);
    if (!frame) continue;
    ++accepted;
    EXPECT_LE(frame->length(), can::kMaxClassicPayload);
    const auto round = can::decode_wire(can::encode_wire(*frame));
    ASSERT_TRUE(round.has_value());
    EXPECT_EQ(*round, *frame);
  }
  // The CRC-15 makes random acceptance astronomically unlikely.
  EXPECT_EQ(accepted, 0);
}

TEST(Robustness, LogParsersSurviveRandomLines) {
  util::Rng rng(0x106);
  for (int trial = 0; trial < 500; ++trial) {
    const std::string line = random_text(rng, 80);
    (void)trace::parse_candump_line(line);  // must not crash / UB
  }
  // And random bytes through the stream readers.
  std::stringstream stream(random_text(rng, 5000));
  std::vector<std::string> errors;
  (void)trace::read_candump(stream, &errors);
}

TEST(Robustness, UdsServerAnswersAreAlwaysWellFormed) {
  // Random requests: the server must answer with a well-formed positive
  // (request SID + 0x40) or negative (7F, SID, NRC) — nothing else — and
  // its state machine must stay sound.
  sim::Scheduler scheduler;
  uds::UdsServer server(scheduler);
  server.set_did(0xF190, {'X'});
  util::Rng rng(0x0D5);
  for (int trial = 0; trial < 5000; ++trial) {
    std::vector<std::uint8_t> request(1 + rng.next_below(10));
    rng.fill(request);
    const std::uint8_t sid = request[0];
    server.handle_request(request, [&](std::vector<std::uint8_t> response) {
      ASSERT_FALSE(response.empty());
      if (response[0] == 0x7F) {
        ASSERT_EQ(response.size(), 3u);
        EXPECT_EQ(response[1], sid);
      } else {
        EXPECT_EQ(response[0], static_cast<std::uint8_t>(sid + 0x40));
      }
    });
    scheduler.run_for(std::chrono::milliseconds(1));
  }
  // Still sane afterwards: a legitimate transaction works.
  std::vector<std::uint8_t> response;
  const std::vector<std::uint8_t> read_did = {uds::kSidReadDataByIdentifier, 0xF1, 0x90};
  server.handle_request(read_did,
                        [&](std::vector<std::uint8_t> r) { response = std::move(r); });
  ASSERT_EQ(response.size(), 4u);
  EXPECT_EQ(response[0], 0x62);
}

TEST(Robustness, VehicleSurvivesSustainedChaos) {
  // An hour of full-space fuzz plus bus corruption: no ECU (other than the
  // cluster's intentional defect) may crash, and the simulation must stay
  // internally consistent.
  sim::Scheduler scheduler;
  vehicle::VehicleConfig config;
  config.powertrain_bus.corruption_probability = 0.01;
  config.body_bus.corruption_probability = 0.01;
  config.gateway_filtering = false;
  vehicle::Vehicle car(scheduler, config);
  transport::VirtualBusTransport obd(car.body_bus(), "chaos");
  util::Rng rng(0xC405);
  scheduler.schedule_every(std::chrono::milliseconds(1), [&] {
    std::vector<std::uint8_t> payload(rng.next_below(9));
    rng.fill(payload);
    obd.send(*can::CanFrame::data(static_cast<std::uint32_t>(rng.next_below(2048)), payload));
  });
  scheduler.run_for(std::chrono::hours(1));

  EXPECT_FALSE(car.engine().crashed());
  EXPECT_FALSE(car.bcm().crashed());
  EXPECT_FALSE(car.head_unit().crashed());
  // The cluster's injected defect is expected to have tripped by now.
  EXPECT_TRUE(car.cluster().crash_latched());
  // The engine still runs its cycle.
  EXPECT_GT(car.engine().rpm(), 100.0);
  // Conservation still holds on the body bus.
  const auto& stats = car.body_bus().stats();
  EXPECT_GT(stats.frames_delivered, 100'000u);
  EXPECT_LE(stats.busy_time.count(), scheduler.now().count());
}

TEST(Robustness, IsoTpChannelsSurviveFuzzedProtocolFrames) {
  // Random frames on the ISO-TP rx id must never wedge the channel.
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  transport::VirtualBusTransport server_port(bus, "server");
  isotp::IsoTpConfig config;
  config.rx_id = 0x7E0;
  config.tx_id = 0x7E8;
  isotp::IsoTpChannel channel(
      scheduler, [&](const can::CanFrame& f) { return server_port.send(f); }, config);
  int messages = 0;
  channel.set_on_message([&](const std::vector<std::uint8_t>&, sim::SimTime) { ++messages; });
  server_port.set_rx_callback(
      [&](const can::CanFrame& f, sim::SimTime t) { channel.handle_frame(f, t); });

  transport::VirtualBusTransport fuzzer_port(bus, "fuzzer");
  util::Rng rng(0x150);
  for (int i = 0; i < 5000; ++i) {
    std::vector<std::uint8_t> payload(rng.next_below(9));
    rng.fill(payload);
    fuzzer_port.send(*can::CanFrame::data(0x7E0, payload));
    scheduler.run_for(std::chrono::microseconds(500));
  }
  scheduler.run_for(std::chrono::seconds(2));
  // After the storm a clean single-frame message still gets through.
  fuzzer_port.send(*can::CanFrame::data(0x7E0, {0x02, 0x10, 0x01}));
  scheduler.run_for(std::chrono::milliseconds(10));
  EXPECT_GT(messages, 0);
}

}  // namespace
}  // namespace acf
