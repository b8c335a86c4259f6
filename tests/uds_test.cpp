#include <gtest/gtest.h>

#include "sim/scheduler.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "uds/uds_client.hpp"
#include "uds/uds_server.hpp"

namespace acf::uds {
namespace {

/// Drives the server directly (no bus) for protocol-level tests.
class UdsServerTest : public ::testing::Test {
 protected:
  std::vector<std::uint8_t> request(std::initializer_list<std::uint8_t> bytes) {
    std::vector<std::uint8_t> response;
    server.handle_request(std::vector<std::uint8_t>(bytes),
                          [&response](std::vector<std::uint8_t> r) { response = std::move(r); });
    return response;
  }

  void enter_extended_session() {
    const auto response = request({kSidDiagnosticSessionControl, 0x03});
    ASSERT_EQ(response[0], 0x50);
  }

  Seed unlock_seed() {
    const auto response = request({kSidSecurityAccess, 0x01});
    Seed seed{};
    for (std::size_t i = 0; i < seed.size(); ++i) seed[i] = response.at(2 + i);
    return seed;
  }

  sim::Scheduler scheduler;
  UdsServer server{scheduler};
  XorRotateAlgorithm algorithm;
};

TEST_F(UdsServerTest, UnknownServiceRejected) {
  const auto response = request({0x84, 0x01});
  EXPECT_EQ(response, (std::vector<std::uint8_t>{0x7F, 0x84, kNrcServiceNotSupported}));
}

TEST_F(UdsServerTest, SessionControlPositive) {
  const auto response = request({kSidDiagnosticSessionControl, 0x03});
  ASSERT_GE(response.size(), 2u);
  EXPECT_EQ(response[0], 0x50);
  EXPECT_EQ(response[1], 0x03);
  EXPECT_EQ(server.session(), Session::kExtended);
}

TEST_F(UdsServerTest, SessionControlBadSubFunction) {
  const auto response = request({kSidDiagnosticSessionControl, 0x42});
  EXPECT_EQ(response[2], kNrcSubFunctionNotSupported);
}

TEST_F(UdsServerTest, SessionControlBadLength) {
  const auto response = request({kSidDiagnosticSessionControl});
  EXPECT_TRUE(response.empty() || response[2] == kNrcIncorrectLength);
  const auto response2 = request({kSidDiagnosticSessionControl, 0x03, 0x00});
  EXPECT_EQ(response2[2], kNrcIncorrectLength);
}

TEST_F(UdsServerTest, ReadDidKnownAndUnknown) {
  server.set_did(0xF190, {'V', 'I', 'N'});
  auto response = request({kSidReadDataByIdentifier, 0xF1, 0x90});
  ASSERT_EQ(response.size(), 6u);
  EXPECT_EQ(response[0], 0x62);
  EXPECT_EQ(response[3], 'V');
  response = request({kSidReadDataByIdentifier, 0x12, 0x34});
  EXPECT_EQ(response[2], kNrcRequestOutOfRange);
}

TEST_F(UdsServerTest, WriteDidRequiresSessionAndSecurity) {
  server.set_did(0x0200, {0x00}, /*writable=*/true, /*write_needs_unlock=*/true);
  // Default session: conditions not correct.
  auto response = request({kSidWriteDataByIdentifier, 0x02, 0x00, 0xAA});
  EXPECT_EQ(response[2], kNrcConditionsNotCorrect);
  enter_extended_session();
  // Locked: security access denied.
  response = request({kSidWriteDataByIdentifier, 0x02, 0x00, 0xAA});
  EXPECT_EQ(response[2], kNrcSecurityAccessDenied);
  // Unlock, then the write succeeds.
  const Seed seed = unlock_seed();
  const Key key = algorithm.compute_key(seed);
  std::vector<std::uint8_t> send_key = {kSidSecurityAccess, 0x02};
  send_key.insert(send_key.end(), key.begin(), key.end());
  std::vector<std::uint8_t> unlock_response;
  server.handle_request(send_key, [&](std::vector<std::uint8_t> r) {
    unlock_response = std::move(r);
  });
  ASSERT_EQ(unlock_response[0], 0x67);
  EXPECT_EQ(server.security_state(), SecurityState::kUnlocked);
  response = request({kSidWriteDataByIdentifier, 0x02, 0x00, 0xAA});
  EXPECT_EQ(response[0], 0x6E);
  EXPECT_EQ((*server.did_value(0x0200))[0], 0xAA);
}

TEST_F(UdsServerTest, WriteUnwritableDidRejected) {
  server.set_did(0xF190, {'V'}, /*writable=*/false);
  enter_extended_session();
  const auto response = request({kSidWriteDataByIdentifier, 0xF1, 0x90, 0x00});
  EXPECT_EQ(response[2], kNrcRequestOutOfRange);
}

TEST_F(UdsServerTest, SecurityAccessNeedsNonDefaultSession) {
  const auto response = request({kSidSecurityAccess, 0x01});
  EXPECT_EQ(response[2], kNrcConditionsNotCorrect);
}

TEST_F(UdsServerTest, SeedThenCorrectKeyUnlocks) {
  enter_extended_session();
  const Seed seed = unlock_seed();
  EXPECT_EQ(server.security_state(), SecurityState::kSeedIssued);
  const Key key = algorithm.compute_key(seed);
  std::vector<std::uint8_t> message = {kSidSecurityAccess, 0x02};
  message.insert(message.end(), key.begin(), key.end());
  std::vector<std::uint8_t> response;
  server.handle_request(message, [&](std::vector<std::uint8_t> r) { response = std::move(r); });
  EXPECT_EQ(response[0], 0x67);
  EXPECT_EQ(server.security_state(), SecurityState::kUnlocked);
  EXPECT_EQ(server.stats().unlocks, 1u);
}

TEST_F(UdsServerTest, KeyWithoutSeedIsSequenceError) {
  enter_extended_session();
  const auto response = request({kSidSecurityAccess, 0x02, 1, 2, 3, 4});
  EXPECT_EQ(response[2], kNrcRequestSequenceError);
}

TEST_F(UdsServerTest, WrongKeyThreeTimesLocksOut) {
  enter_extended_session();
  for (int attempt = 0; attempt < 2; ++attempt) {
    unlock_seed();
    const auto response = request({kSidSecurityAccess, 0x02, 0xDE, 0xAD, 0xBE, 0xEF});
    EXPECT_EQ(response[2], kNrcInvalidKey) << attempt;
  }
  unlock_seed();
  const auto final_response = request({kSidSecurityAccess, 0x02, 0xDE, 0xAD, 0xBE, 0xEF});
  EXPECT_EQ(final_response[2], kNrcExceededAttempts);
  // During the penalty window, no new seed is issued.
  const auto during = request({kSidSecurityAccess, 0x01});
  EXPECT_EQ(during[2], kNrcTimeDelayNotExpired);
  // After the delay the handshake works again.
  scheduler.run_for(std::chrono::seconds(11));
  request({kSidDiagnosticSessionControl, 0x03});  // s3 dropped us to default
  const auto after = request({kSidSecurityAccess, 0x01});
  EXPECT_EQ(after[0], 0x67);
  EXPECT_EQ(server.stats().failed_key_attempts, 3u);
}

TEST_F(UdsServerTest, SeedWhileUnlockedIsAllZero) {
  enter_extended_session();
  const Seed seed = unlock_seed();
  const Key key = algorithm.compute_key(seed);
  std::vector<std::uint8_t> message = {kSidSecurityAccess, 0x02};
  message.insert(message.end(), key.begin(), key.end());
  server.handle_request(message, [](std::vector<std::uint8_t>) {});
  const auto response = request({kSidSecurityAccess, 0x01});
  EXPECT_EQ(response, (std::vector<std::uint8_t>{0x67, 0x01, 0, 0, 0, 0}));
}

TEST_F(UdsServerTest, SessionTimeoutRelocks) {
  enter_extended_session();
  unlock_seed();
  scheduler.run_for(std::chrono::seconds(6));  // S3 = 5 s
  EXPECT_EQ(server.session(), Session::kDefault);
  EXPECT_EQ(server.security_state(), SecurityState::kLocked);
}

TEST_F(UdsServerTest, TesterPresentKeepsSessionAlive) {
  enter_extended_session();
  for (int i = 0; i < 5; ++i) {
    scheduler.run_for(std::chrono::seconds(3));
    const auto response = request({kSidTesterPresent, 0x00});
    EXPECT_EQ(response[0], 0x7E);
  }
  EXPECT_EQ(server.session(), Session::kExtended);
  // Suppress-response bit: no reply, still refreshes.
  const auto silent = request({kSidTesterPresent, 0x80});
  EXPECT_TRUE(silent.empty());
}

TEST_F(UdsServerTest, EcuResetDropsEverything) {
  enter_extended_session();
  bool reset_called = false;
  server.set_reset_handler([&] { reset_called = true; });
  const auto response = request({kSidEcuReset, 0x01});
  EXPECT_EQ(response[0], 0x51);
  EXPECT_TRUE(reset_called);
  EXPECT_EQ(server.session(), Session::kDefault);
  EXPECT_EQ(server.security_state(), SecurityState::kLocked);
}

TEST_F(UdsServerTest, ReadDtcReportsProviderData) {
  server.set_dtc_provider([] {
    return std::vector<std::uint8_t>{0x9A, 0x02, 0x00, 0x09};
  });
  const auto response = request({kSidReadDtcInformation, 0x02, 0xFF});
  ASSERT_EQ(response.size(), 7u);
  EXPECT_EQ(response[0], 0x59);
  EXPECT_EQ(response[3], 0x9A);
  const auto bad = request({kSidReadDtcInformation, 0x42});
  EXPECT_EQ(bad[2], kNrcSubFunctionNotSupported);
}

TEST_F(UdsServerTest, StatsCountResponses) {
  request({kSidDiagnosticSessionControl, 0x03});
  request({0x84, 0x00});
  EXPECT_EQ(server.stats().requests, 2u);
  EXPECT_EQ(server.stats().positive_responses, 1u);
  EXPECT_EQ(server.stats().negative_responses, 1u);
}

// ------------------------------------------------------------ security ----

TEST_F(UdsServerTest, ResetRestoresTheBuiltServer) {
  server.set_did(0x0200, {0x00}, /*writable=*/true, /*write_needs_unlock=*/false);
  // Leave state everywhere: a session, a written DID, spent seeds and a
  // lockout.
  enter_extended_session();
  ASSERT_EQ(request({kSidWriteDataByIdentifier, 0x02, 0x00, 0xAA, 0xBB})[0], 0x6E);
  for (int attempt = 0; attempt < 3; ++attempt) {
    unlock_seed();
    request({kSidSecurityAccess, 0x02, 0, 0, 0, 0});
  }
  ASSERT_EQ(request({kSidSecurityAccess, 0x01})[2], kNrcTimeDelayNotExpired);

  server.reset();
  EXPECT_EQ(server.session(), Session::kDefault);
  EXPECT_EQ(server.security_state(), SecurityState::kLocked);
  EXPECT_EQ(server.stats().requests, 0u);
  EXPECT_EQ(server.stats().positive_responses, 0u);
  EXPECT_EQ(server.stats().negative_responses, 0u);
  EXPECT_EQ(server.stats().failed_key_attempts, 0u);
  EXPECT_EQ(*server.did_value(0x0200), (std::vector<std::uint8_t>{0x00}));
  // No lockout, and the seed stream starts over: the first seed is a new
  // server's first seed.
  UdsServer fresh{scheduler};
  std::vector<std::uint8_t> fresh_seed;
  const auto keep = [&fresh_seed](std::vector<std::uint8_t> r) { fresh_seed = std::move(r); };
  fresh.handle_request(std::vector<std::uint8_t>{kSidDiagnosticSessionControl, 0x03}, keep);
  fresh.handle_request(std::vector<std::uint8_t>{kSidSecurityAccess, 0x01}, keep);
  enter_extended_session();
  EXPECT_EQ(request({kSidSecurityAccess, 0x01}), fresh_seed);
}

TEST(SeedKey, DeterministicAndSeedSensitive) {
  const XorRotateAlgorithm algorithm;
  const Seed a{1, 2, 3, 4};
  const Seed b{1, 2, 3, 5};
  EXPECT_EQ(algorithm.compute_key(a), algorithm.compute_key(a));
  EXPECT_NE(algorithm.compute_key(a), algorithm.compute_key(b));
}

TEST(SeedKey, SecretSensitive) {
  const XorRotateAlgorithm alg1(0x11111111);
  const XorRotateAlgorithm alg2(0x22222222);
  const Seed seed{9, 8, 7, 6};
  EXPECT_NE(alg1.compute_key(seed), alg2.compute_key(seed));
}

TEST(SeedKey, VerifyKeyChecksLengthAndContent) {
  const XorRotateAlgorithm algorithm;
  const Seed seed{1, 2, 3, 4};
  const Key key = algorithm.compute_key(seed);
  EXPECT_TRUE(verify_key(algorithm, seed, key));
  std::vector<std::uint8_t> wrong(key.begin(), key.end());
  wrong[0] ^= 1;
  EXPECT_FALSE(verify_key(algorithm, seed, wrong));
  wrong.pop_back();
  EXPECT_FALSE(verify_key(algorithm, seed, wrong));
}

// ----------------------------------------------------------- end-to-end ---

TEST(UdsClientServer, FullHandshakeOverBus) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);

  // Server side: ISO-TP channel + UDS server wired manually.
  transport::VirtualBusTransport server_port(bus, "ecu");
  UdsServer server(scheduler);
  server.set_did(0xF190, {'A', 'B', 'C'});
  isotp::IsoTpConfig server_isotp;
  server_isotp.rx_id = 0x7E0;
  server_isotp.tx_id = 0x7E8;
  isotp::IsoTpChannel server_channel(
      scheduler, [&](const can::CanFrame& f) { return server_port.send(f); }, server_isotp);
  server_channel.set_on_message([&](const std::vector<std::uint8_t>& req, sim::SimTime) {
    server.handle_request(req, [&](std::vector<std::uint8_t> resp) {
      server_channel.send(std::move(resp));
    });
  });
  server_port.set_rx_callback([&](const can::CanFrame& f, sim::SimTime t) {
    server_channel.handle_frame(f, t);
  });

  // Client side.
  transport::VirtualBusTransport tester_port(bus, "tester");
  isotp::IsoTpConfig client_isotp;
  client_isotp.tx_id = 0x7E0;
  client_isotp.rx_id = 0x7E8;
  UdsClient client(scheduler,
                   [&](const can::CanFrame& f) { return tester_port.send(f); }, client_isotp);
  tester_port.set_rx_callback([&](const can::CanFrame& f, sim::SimTime t) {
    client.handle_frame(f, t);
  });

  client.read_did(0xF190);
  scheduler.run_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(client.last_response().has_value());
  EXPECT_TRUE(client.last_response()->positive());
  EXPECT_EQ(client.last_response()->payload.back(), 'C');

  client.start_session(0x03);
  scheduler.run_for(std::chrono::milliseconds(100));
  client.request_seed();
  scheduler.run_for(std::chrono::milliseconds(100));
  const auto seed = UdsClient::seed_from_response(*client.last_response());
  ASSERT_TRUE(seed.has_value());
  const XorRotateAlgorithm algorithm;
  client.send_key(0x01, algorithm.compute_key(*seed));
  scheduler.run_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(client.last_response()->positive());
  EXPECT_EQ(server.security_state(), SecurityState::kUnlocked);
  EXPECT_EQ(client.requests_sent(), 4u);
  EXPECT_EQ(client.responses_received(), 4u);
}

TEST(UdsClient, NrcExtraction) {
  UdsResponse negative{{0x7F, 0x27, 0x35}};
  EXPECT_FALSE(negative.positive());
  EXPECT_EQ(negative.nrc().value(), 0x35);
  UdsResponse positive{{0x67, 0x01, 1, 2, 3, 4}};
  EXPECT_TRUE(positive.positive());
  EXPECT_FALSE(positive.nrc().has_value());
  const auto seed = UdsClient::seed_from_response(positive);
  ASSERT_TRUE(seed.has_value());
  EXPECT_EQ((*seed)[0], 1);
}

}  // namespace
}  // namespace acf::uds
