#include <gtest/gtest.h>

#include "security/mac.hpp"
#include "sim/scheduler.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "util/rng.hpp"
#include "vehicle/vehicle.hpp"

namespace acf::security {
namespace {

const Key128 kTestKey = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                         0x08, 0x09, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0x0F};

// --------------------------------------------------------------- SipHash --

TEST(SipHash, ReferenceVector) {
  // The official SipHash-2-4 test vector: key 000102...0F over the sequence
  // 00 01 02 ... and expected outputs from the reference implementation.
  // First entry: empty input -> 0x726fdb47dd0e0e31.
  EXPECT_EQ(siphash24(kTestKey, {}), 0x726fdb47dd0e0e31ULL);
  const std::uint8_t one[] = {0x00};
  EXPECT_EQ(siphash24(kTestKey, one), 0x74f839c593dc67fdULL);
  const std::uint8_t eight[] = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07};
  EXPECT_EQ(siphash24(kTestKey, eight), 0x93f5f5799a932462ULL);
}

TEST(SipHash, KeySensitivity) {
  Key128 other = kTestKey;
  other[0] ^= 1;
  const std::uint8_t data[] = {1, 2, 3};
  EXPECT_NE(siphash24(kTestKey, data), siphash24(other, data));
}

TEST(SipHash, MessageSensitivity) {
  const std::uint8_t a[] = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  std::uint8_t b[std::size(a)];
  std::copy(std::begin(a), std::end(a), b);
  b[8] ^= 0x80;
  EXPECT_NE(siphash24(kTestKey, a), siphash24(kTestKey, b));
}

// --------------------------------------------------------- authenticator --

TEST(FrameAuthenticator, SignVerifyRoundTrip) {
  FrameAuthenticator sender(kTestKey);
  FrameAuthenticator receiver(kTestKey);
  for (int i = 0; i < 50; ++i) {
    const auto frame = sender.sign_command(0x215, dbc::kCmdUnlock);
    EXPECT_EQ(frame.length(), 7u);
    EXPECT_EQ(receiver.verify_command(frame), VerifyResult::kOk) << i;
    EXPECT_EQ(receiver.last_command(), dbc::kCmdUnlock);
  }
  EXPECT_EQ(receiver.stats().accepted, 50u);
}

TEST(FrameAuthenticator, ResetRestartsCountersAndStats) {
  FrameAuthenticator sender(kTestKey);
  FrameAuthenticator receiver(kTestKey);
  const auto first = sender.sign_command(0x215, dbc::kCmdUnlock);
  ASSERT_EQ(receiver.verify_command(first), VerifyResult::kOk);
  sender.reset();
  receiver.reset();
  EXPECT_EQ(sender.stats().signed_frames, 0u);
  EXPECT_EQ(receiver.stats().accepted, 0u);
  EXPECT_EQ(receiver.rx_counter(), 0u);
  // Counter 1 again, and fresh to the receiver.
  EXPECT_EQ(sender.sign_command(0x215, dbc::kCmdUnlock), first);
  EXPECT_EQ(receiver.verify_command(first), VerifyResult::kOk);
}

TEST(FrameAuthenticator, ReplayRejected) {
  FrameAuthenticator sender(kTestKey);
  FrameAuthenticator receiver(kTestKey);
  const auto frame = sender.sign_command(0x215, dbc::kCmdUnlock);
  EXPECT_EQ(receiver.verify_command(frame), VerifyResult::kOk);
  EXPECT_EQ(receiver.verify_command(frame), VerifyResult::kReplayed);
  EXPECT_EQ(receiver.stats().replayed, 1u);
}

TEST(FrameAuthenticator, LostFramesToleratedWithinWindow) {
  FrameAuthenticator sender(kTestKey, /*counter_window=*/16);
  FrameAuthenticator receiver(kTestKey, 16);
  for (int i = 0; i < 10; ++i) sender.sign_command(0x215, dbc::kCmdLock);  // lost
  const auto frame = sender.sign_command(0x215, dbc::kCmdUnlock);  // counter 11
  EXPECT_EQ(receiver.verify_command(frame), VerifyResult::kOk);
  EXPECT_EQ(receiver.rx_counter(), 11u);
}

TEST(FrameAuthenticator, GapBeyondWindowRejected) {
  FrameAuthenticator sender(kTestKey, 16);
  FrameAuthenticator receiver(kTestKey, 16);
  for (int i = 0; i < 20; ++i) sender.sign_command(0x215, dbc::kCmdLock);  // lost
  const auto frame = sender.sign_command(0x215, dbc::kCmdUnlock);  // counter 21 > window
  EXPECT_NE(receiver.verify_command(frame), VerifyResult::kOk);
}

TEST(FrameAuthenticator, TamperedFieldsRejected) {
  FrameAuthenticator sender(kTestKey);
  FrameAuthenticator receiver(kTestKey);
  const auto genuine = sender.sign_command(0x215, dbc::kCmdLock);
  // Flip the command byte (turn LOCK into UNLOCK) keeping the MAC.
  std::vector<std::uint8_t> bytes(genuine.payload().begin(), genuine.payload().end());
  bytes[0] = dbc::kCmdUnlock;
  EXPECT_EQ(receiver.verify_command(*can::CanFrame::data(0x215, bytes)),
            VerifyResult::kBadMac);
  // Wrong DLC.
  bytes.resize(5);
  EXPECT_EQ(receiver.verify_command(*can::CanFrame::data(0x215, bytes)),
            VerifyResult::kBadLength);
}

TEST(FrameAuthenticator, WrongKeyNeverVerifies) {
  FrameAuthenticator sender(kTestKey);
  Key128 wrong = kTestKey;
  wrong[15] ^= 0xFF;
  FrameAuthenticator receiver(wrong);
  for (int i = 0; i < 100; ++i) {
    EXPECT_NE(receiver.verify_command(sender.sign_command(0x215, dbc::kCmdUnlock)),
              VerifyResult::kOk);
  }
}

TEST(FrameAuthenticator, RandomForgeriesRejected) {
  // The Table V attack against the authenticated predicate, distilled:
  // correctly-shaped frames with random counter/MAC bytes never verify.
  FrameAuthenticator receiver(kTestKey);
  util::Rng rng(0x5EC);
  for (int i = 0; i < 100000; ++i) {
    std::uint8_t bytes[7];
    rng.fill(bytes);
    bytes[0] = dbc::kCmdUnlock;  // the attacker knows the command byte
    const auto frame = can::CanFrame::data(0x215, bytes);
    EXPECT_NE(receiver.verify_command(*frame), VerifyResult::kOk);
  }
  EXPECT_EQ(receiver.stats().accepted, 0u);
}

// ----------------------------------------------------------- end-to-end ---

TEST(AuthenticatedUnlock, LegitimatePathWorks) {
  sim::Scheduler scheduler;
  vehicle::UnlockTestbench bench(scheduler, vehicle::UnlockPredicate::authenticated());
  bench.head_unit().request_unlock();
  scheduler.run_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(bench.bcm().unlocked());
  bench.head_unit().request_lock();
  scheduler.run_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(bench.bcm().unlocked());
  EXPECT_EQ(bench.head_unit().acks_seen(), 2u);
}

TEST(AuthenticatedUnlock, PaperStyleCommandRejected) {
  // The frame that unlocks every unauthenticated predicate bounces off.
  sim::Scheduler scheduler;
  vehicle::UnlockTestbench bench(scheduler, vehicle::UnlockPredicate::authenticated());
  transport::VirtualBusTransport attacker(bench.bus(), "attacker");
  attacker.send(*can::CanFrame::data(dbc::kMsgBodyCommand,
                                     {dbc::kCmdUnlock, 0x5F, 0x01, 0x00, 1, 0x20, 0}));
  scheduler.run_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(bench.bcm().unlocked());
  EXPECT_EQ(bench.bcm().rejected_commands(), 1u);
}

TEST(AuthenticatedUnlock, ReplayedGenuineUnlockRejected) {
  sim::Scheduler scheduler;
  vehicle::UnlockTestbench bench(scheduler, vehicle::UnlockPredicate::authenticated());
  // Record the genuine unlock frame off the bus.
  std::optional<can::CanFrame> recorded;
  transport::VirtualBusTransport tap(bench.bus(), "tap", {}, /*listen_only=*/true);
  tap.set_rx_callback([&](const can::CanFrame& frame, sim::SimTime) {
    if (frame.id() == dbc::kMsgBodyCommand) recorded = frame;
  });
  bench.head_unit().request_unlock();
  scheduler.run_for(std::chrono::milliseconds(10));
  ASSERT_TRUE(recorded.has_value());
  ASSERT_TRUE(bench.bcm().unlocked());

  // Lock again, then replay the recorded unlock.
  bench.head_unit().request_lock();
  scheduler.run_for(std::chrono::milliseconds(10));
  ASSERT_FALSE(bench.bcm().unlocked());
  transport::VirtualBusTransport attacker(bench.bus(), "attacker");
  attacker.send(*recorded);
  scheduler.run_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(bench.bcm().unlocked());  // rolling counter blocks the replay
  EXPECT_EQ(bench.bcm().verifier()->stats().replayed, 1u);
}

}  // namespace
}  // namespace acf::security
