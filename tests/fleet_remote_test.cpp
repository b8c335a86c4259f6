// Distributed campaign service: wire protocol, lease table, campaign
// checkpoint, reconnect gate, progress counters, and the crash-tolerance
// end-to-end contract — a fleet served over sockets (including one whose
// worker dies mid-batch, and one whose coordinator restarts from its
// checkpoint) produces byte-identical JSONL to the in-process executor.
#include <sys/socket.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "fleet/executor.hpp"
#include "fleet/jsonl.hpp"
#include "fleet/remote/checkpoint.hpp"
#include "fleet/remote/coordinator.hpp"
#include "fleet/remote/lease.hpp"
#include "fleet/remote/reconnect.hpp"
#include "fleet/remote/wire.hpp"
#include "fleet/remote/worker.hpp"
#include "fleet/worlds.hpp"
#include "fuzzer/config.hpp"
#include "metrics/metrics.hpp"
#include "metrics/snapshot.hpp"
#include "util/bytes.hpp"
#include "util/file.hpp"
#include "util/hex.hpp"
#include "util/socket.hpp"
#include "vehicle/vehicle.hpp"

namespace acf::fleet::remote {
namespace {

using namespace std::chrono_literals;

// ----------------------------------------------------------- fixtures -----

/// Same reduced-window unlock world the fleet tests use: detections in
/// simulated seconds, trials in milliseconds of wall time.  A non-null
/// registry arms the sim/bus metrics seam the observability tests compare.
WorldFactory fast_unlock_factory(metrics::Registry* registry = nullptr) {
  fuzzer::FuzzConfig fast = fuzzer::FuzzConfig::around_id(0x215, 3);
  fast.tx_period = std::chrono::microseconds(250);
  return unlock_world_factory(
      {{vehicle::UnlockPredicate::single_id_and_byte(), fast, std::chrono::minutes(5)},
       {vehicle::UnlockPredicate::id_byte_and_length(), fast, std::chrono::minutes(5)}},
      registry);
}

TrialPlan fast_plan(std::size_t replicas) {
  return TrialPlan({"weak", "hardened"}, replicas, 0xACF17EE7ULL);
}

std::string jsonl_of(const TrialPlan& plan, const std::vector<TrialOutcome>& outcomes) {
  std::ostringstream out;
  JsonlExporter(out).write_all(plan, outcomes);
  return out.str();
}

std::vector<TrialOutcome> reference_outcomes(const TrialPlan& plan) {
  ExecutorConfig config;
  config.threads = 2;
  Executor executor(config);
  return executor.run(plan, fast_unlock_factory());
}

bool outcomes_equal(const TrialOutcome& a, const TrialOutcome& b) {
  // Value equality through the canonical wire encoding: every field crosses.
  LeaseResultMsg ma, mb;
  ma.outcome = a;
  mb.outcome = b;
  return encode(Message{ma}) == encode(Message{mb});
}

// --------------------------------------------------------------- wire -----

TEST(FleetRemoteWire, EveryMessageTypeRoundTrips) {
  HelloMsg hello;
  hello.fingerprint = 0xDEADBEEF;
  hello.instance_id = 0x1DB01DB0CAFEF00Dull;
  WelcomeMsg welcome;
  welcome.fingerprint = 0xDEADBEEF;
  welcome.trial_count = 400;
  LeaseGrantMsg grant;
  grant.lease_id = 42;
  grant.trials = {10, 11, 12};
  LeaseResultMsg result;
  result.lease_id = 42;
  result.outcome.spec = {17, 1, 8, 0x1234, sim::Duration{5'000'000'000}};
  result.outcome.status = TrialStatus::kCompleted;
  result.outcome.stop_reason = fuzzer::StopReason::kFailureDetected;
  result.outcome.frames_sent = 812;
  result.outcome.sim_seconds = 4.75;
  result.outcome.time_to_failure = 1.25;
  result.outcome.findings = {"unlock without auth", "line with \"quotes\" and \n newline"};

  HeartbeatMsg beat_with_metrics{42, std::nullopt};
  beat_with_metrics.metrics.emplace();
  beat_with_metrics.metrics->counters = {{"fleet.trial.completed", 7},
                                         {"sim.scheduler.heap_capacity_max", 256}};
  beat_with_metrics.metrics->gauges = {{"fleet.leases.outstanding", -1}};
  metrics::TimerSnap& timer = beat_with_metrics.metrics->timers.emplace_back();
  timer.name = "fleet.trial.sim_seconds";
  timer.count = 3;
  timer.sum = 6.5;
  timer.min = 0.5;
  timer.max = 4.0;
  timer.samples = {{0.5, 1, 0}, {2.0, 1, 0}, {4.0, 1, 0}};

  const std::vector<Message> messages = {
      Message{hello},         Message{welcome},
      Message{LeaseRequestMsg{4}}, Message{grant},
      Message{result},        Message{HeartbeatMsg{42, std::nullopt}},
      Message{beat_with_metrics},
      Message{ShutdownMsg{ShutdownReason::kCoordinatorPausing}},
      Message{RejectedMsg{"fingerprint mismatch"}},
  };
  for (const Message& message : messages) {
    const std::vector<std::uint8_t> payload = encode(message);
    const std::optional<Message> decoded = decode(payload);
    ASSERT_TRUE(decoded.has_value()) << "payload type " << int(payload[0]);
    EXPECT_EQ(encode(*decoded), payload);
  }
}

TEST(FleetRemoteWire, TruncatedAndPaddedPayloadsAreRejected) {
  LeaseGrantMsg grant;
  grant.lease_id = 9;
  grant.trials = {1, 2, 3};
  std::vector<std::uint8_t> payload = encode(Message{grant});
  for (std::size_t cut = 1; cut < payload.size(); ++cut) {
    const std::span<const std::uint8_t> truncated(payload.data(), payload.size() - cut);
    EXPECT_FALSE(decode(truncated).has_value()) << "cut " << cut;
  }
  payload.push_back(0x00);  // strict: trailing garbage is not tolerated
  EXPECT_FALSE(decode(payload).has_value());
  EXPECT_FALSE(decode(std::span<const std::uint8_t>{}).has_value());
  // A type byte outside the protocol's 1..8 is malformed too, alone or in
  // front of a well-formed body.
  payload.pop_back();
  for (const int type : {0x00, 0x09, 0x7F, 0xFF}) {
    const std::uint8_t bare[] = {static_cast<std::uint8_t>(type)};
    EXPECT_FALSE(decode(bare).has_value()) << type;
    payload[0] = static_cast<std::uint8_t>(type);
    EXPECT_FALSE(decode(payload).has_value()) << type;
  }
}

/// A stop byte past the last StopReason is rejected, so 6, the retired
/// transport-dead reason, no longer decodes.
TEST(FleetRemoteWire, OutOfRangeStopReasonIsRejected) {
  LeaseResultMsg result;
  result.lease_id = 3;
  result.outcome.stop_reason = fuzzer::StopReason::kStoppedByUser;
  std::vector<std::uint8_t> payload = encode(Message{result});
  result.outcome.stop_reason = fuzzer::StopReason::kDurationElapsed;
  const std::vector<std::uint8_t> other = encode(Message{result});
  ASSERT_EQ(payload.size(), other.size());
  const auto stop = std::mismatch(payload.begin(), payload.end(), other.begin()).first;
  ASSERT_NE(stop, payload.end());
  ASSERT_EQ(*stop, fuzzer::kStopReasonCount - 1);
  EXPECT_TRUE(decode(payload).has_value());
  for (const int byte : {6, 7, 0xFF}) {
    *stop = static_cast<std::uint8_t>(byte);
    EXPECT_FALSE(decode(payload).has_value()) << byte;
  }
}

TEST(FleetRemoteWire, HostileDeclaredCountsAreRejectedNotAllocated) {
  // A LeaseGrant declaring 4 billion trials in a 13-byte payload.
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kLeaseGrant));
  w.u64(1);
  w.u32(0xFFFFFFFFu);
  EXPECT_FALSE(decode(w.bytes()).has_value());
}

TEST(FleetRemoteWire, FrameReaderReassemblesByteByByte) {
  std::vector<std::uint8_t> stream = frame_message(Message{HeartbeatMsg{1, std::nullopt}});
  const std::vector<std::uint8_t> second = frame_message(Message{LeaseRequestMsg{3}});
  stream.insert(stream.end(), second.begin(), second.end());

  FrameReader reader;
  std::vector<std::vector<std::uint8_t>> frames;
  for (const std::uint8_t byte : stream) {
    ASSERT_TRUE(reader.feed(std::span<const std::uint8_t>(&byte, 1)));
    while (auto payload = reader.next()) frames.push_back(std::move(*payload));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<HeartbeatMsg>(*decode(frames[0])));
  EXPECT_TRUE(std::holds_alternative<LeaseRequestMsg>(*decode(frames[1])));
  EXPECT_FALSE(reader.poisoned());
}

TEST(FleetRemoteWire, ZeroAndOversizedLengthPrefixesPoison) {
  for (const std::uint32_t declared : {0u, static_cast<std::uint32_t>(kMaxFramePayload) + 1}) {
    FrameReader reader;
    util::ByteWriter w;
    w.u32(declared);
    EXPECT_FALSE(reader.feed(w.bytes()));
    EXPECT_TRUE(reader.poisoned());
    EXPECT_FALSE(reader.next().has_value());
    // Poison is terminal: further bytes are refused, never resynced.
    const std::uint8_t more[] = {1, 2, 3};
    EXPECT_FALSE(reader.feed(more));
  }
}

/// A peer's last frame often arrives together with its hang-up (a worker's
/// final heartbeat, then exit).  poll reports HUP, not an error, and the
/// reader still decodes the frame before the connection closes.
TEST(FleetRemoteWire, FrameWrittenBeforeHangUpIsDecoded) {
  int ends[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, ends), 0);
  util::Fd ours(ends[0]);
  util::Fd peer(ends[1]);
  HeartbeatMsg beat;
  beat.lease_id = 7;
  beat.metrics.emplace().counters = {{"fleet.trial.completed", 3}};
  const std::vector<std::uint8_t> frame = frame_message(Message{beat});
  ASSERT_EQ(util::socket_write(peer.get(), frame).bytes, frame.size());
  peer.reset();

  util::PollSet poll;
  const std::size_t slot = poll.add(ours.get(), /*want_write=*/false);
  ASSERT_TRUE(poll.wait(1000));
  EXPECT_TRUE(poll.entry(slot).hangup);
  EXPECT_FALSE(poll.entry(slot).error);

  FrameReader reader;
  EXPECT_TRUE(read_until_blocked(ours.get(), reader));  // the peer is gone...
  const std::optional<std::vector<std::uint8_t>> payload = reader.next();
  ASSERT_TRUE(payload.has_value());                     // ...but its frame is not
  const std::optional<Message> decoded = decode(*payload);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_TRUE(std::holds_alternative<HeartbeatMsg>(*decoded));
  EXPECT_EQ(encode(*decoded), encode(Message{beat}));
  EXPECT_FALSE(reader.next().has_value());
}

/// The heartbeat's metrics block is a RegistrySnapshot minus meters and
/// quantiles.  The expected bytes were recorded through the wire's earlier
/// mirror types (the same snapshot converted field by field), so this pins
/// that the block's layout never moved.  Protocol 2 dropped the 8-byte
/// `completed` count that sat between the lease id and the block; the
/// block's bytes are those protocol 1 sent.
TEST(FleetRemoteWire, HeartbeatMetricsBlockBytesAreUnchanged) {
  metrics::RegistrySnapshot snap;
  snap.counters = {{"fleet.trial.completed", 7}, {"sim.scheduler.heap_capacity_max", 256}};
  snap.gauges = {{"fleet.leases.outstanding", -2}};
  snap.meters = {{"fleet.progress.trials", 24, 1.5, 0.4, 0.1, 1.2}};
  metrics::TimerSnap& timer = snap.timers.emplace_back();
  timer.name = "fleet.trial.sim_seconds";
  timer.count = 3;
  timer.sum = 6.5;
  timer.min = 0.5;
  timer.max = 4.0;
  timer.p50 = 2.0;
  timer.p90 = timer.p99 = timer.p999 = 4.0;
  timer.samples = {{0.5, 1, 0}, {2.0, 1, 0}, {4.0, 1, 0}};
  HeartbeatMsg beat;
  beat.lease_id = 42;
  beat.metrics = snap;

  const std::string expected =
      "062a00000000000000"  // type, lease id
      "010200000015000000666c6565742e747269616c2e63"
      "6f6d706c6574656407000000000000001f00000073696d2e7363686564756c65722e686561705f"
      "63617061636974795f6d617800010000000000000100000018000000666c6565742e6c65617365"
      "732e6f75747374616e64696e67feffffffffffffff0100000017000000666c6565742e74726961"
      "6c2e73696d5f7365636f6e647303000000000000000000000000001a40000000000000e03f0000"
      "00000000104003000000000000000000e03f010000000000000000000000000000000000000000"
      "00004001000000000000000000000000000000000000000000104001000000000000000000000000"
      "000000";
  const std::vector<std::uint8_t> payload = encode(Message{beat});
  const std::optional<std::vector<std::uint8_t>> expected_bytes =
      util::parse_hex_bytes(expected);
  ASSERT_TRUE(expected_bytes.has_value());
  EXPECT_EQ(payload, *expected_bytes);

  const std::optional<Message> decoded = decode(payload);
  ASSERT_TRUE(decoded.has_value());
  const auto* back = std::get_if<HeartbeatMsg>(&*decoded);
  ASSERT_NE(back, nullptr);
  ASSERT_TRUE(back->metrics.has_value());
  const metrics::RegistrySnapshot& got = *back->metrics;
  EXPECT_TRUE(got.meters.empty());
  ASSERT_EQ(got.counters.size(), 2u);
  EXPECT_EQ(got.counters[1].name, "sim.scheduler.heap_capacity_max");
  EXPECT_EQ(got.counters[1].value, 256u);
  ASSERT_EQ(got.gauges.size(), 1u);
  EXPECT_EQ(got.gauges[0].value, -2);
  ASSERT_EQ(got.timers.size(), 1u);
  const metrics::TimerSnap& t = got.timers[0];
  EXPECT_EQ(t.count, 3u);
  EXPECT_EQ(t.sum, 6.5);
  EXPECT_EQ(t.p50, 0.0);
  EXPECT_EQ(t.p90, 0.0);
  EXPECT_EQ(t.p99, 0.0);
  EXPECT_EQ(t.p999, 0.0);
  ASSERT_EQ(t.samples.size(), 3u);
  EXPECT_EQ(t.samples[2].value, 4.0);
  EXPECT_EQ(encode(*decoded), payload);
}

TEST(FleetRemoteWire, FingerprintSeparatesCampaigns) {
  const TrialPlan a({"x", "y"}, 3, 1);
  const TrialPlan b({"x", "y"}, 3, 2);   // different seed
  const TrialPlan c({"xy"}, 3, 1);       // arm-boundary shift
  const TrialPlan d({"x", "y"}, 4, 1);   // different replicas
  EXPECT_EQ(campaign_fingerprint(a, "tag"), campaign_fingerprint(a, "tag"));
  EXPECT_NE(campaign_fingerprint(a, "tag"), campaign_fingerprint(b, "tag"));
  EXPECT_NE(campaign_fingerprint(a, "tag"), campaign_fingerprint(c, "tag"));
  EXPECT_NE(campaign_fingerprint(a, "tag"), campaign_fingerprint(d, "tag"));
  EXPECT_NE(campaign_fingerprint(a, "tag"), campaign_fingerprint(a, "other"));
}

// -------------------------------------------------------------- lease -----

TEST(FleetRemoteLease, GrantsInIndexOrderAndCompletes) {
  LeaseTable table(5);
  const auto now = WallClock::now();
  const auto lease = table.grant(1, 3, now, 1000ms);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->trials, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(table.outstanding(), 1u);

  EXPECT_EQ(table.complete(lease->lease_id, 0), CompletionResult::kAccepted);
  EXPECT_EQ(table.complete(lease->lease_id, 0), CompletionResult::kDuplicate);
  EXPECT_EQ(table.complete(lease->lease_id, 99), CompletionResult::kBadIndex);
  EXPECT_EQ(table.done_count(), 1u);
  EXPECT_EQ(table.stats().duplicate_completions, 1u);

  // Remaining two trials still leased; the other two grant to worker 2.
  const auto rest = table.grant(2, 8, now, 1000ms);
  ASSERT_TRUE(rest.has_value());
  EXPECT_EQ(rest->trials, (std::vector<std::size_t>{3, 4}));
  EXPECT_FALSE(table.grant(3, 8, now, 1000ms).has_value());  // all leased/done
}

TEST(FleetRemoteLease, ExpiredLeaseHandsTrialsToTheNextWorkerInOrder) {
  LeaseTable table(4);
  const auto now = WallClock::now();
  const auto lease = table.grant(1, 4, now, 100ms);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(table.complete(lease->lease_id, 1), CompletionResult::kAccepted);

  EXPECT_EQ(table.expire(now + 50ms), 0u);   // renewed deadline not yet due
  table.renew(lease->lease_id, now + 60ms);
  EXPECT_EQ(table.expire(now + 120ms), 0u);  // renewal pushed it out
  EXPECT_EQ(table.expire(now + 200ms), 1u);  // silence past TTL: reclaimed

  const auto stolen = table.grant(2, 8, now + 200ms, 100ms);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->trials, (std::vector<std::size_t>{0, 2, 3}));  // ascending
  EXPECT_EQ(table.stats().leases_expired, 1u);
  EXPECT_EQ(table.stats().trials_stolen, 3u);
  // The dead worker's late completion is a duplicate once the thief lands it.
  EXPECT_EQ(table.complete(stolen->lease_id, 0), CompletionResult::kAccepted);
  EXPECT_EQ(table.complete(lease->lease_id, 0), CompletionResult::kDuplicate);
}

TEST(FleetRemoteLease, ReleaseWorkerReclaimsAllItsLeases) {
  LeaseTable table(6);
  const auto now = WallClock::now();
  const auto first = table.grant(7, 2, now, 1000ms);
  const auto second = table.grant(7, 2, now, 1000ms);
  const auto other = table.grant(8, 2, now, 1000ms);
  ASSERT_TRUE(first && second && other);
  EXPECT_EQ(table.release_worker(7), 2u);
  EXPECT_EQ(table.outstanding(), 1u);  // worker 8's lease untouched
  const auto stolen = table.grant(9, 8, now, 1000ms);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(stolen->trials, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(table.stats().leases_released, 2u);
  EXPECT_EQ(table.stats().trials_stolen, 4u);
}

/// The checkpoint stores only the finished trials.  Leases go out in index
/// order, so the trials in flight at save time sit below every trial never
/// issued, and a restored table, issuing in index order, re-issues them
/// first.
TEST(FleetRemoteLease, RestoredTableReissuesInFlightTrialsBeforeUntouchedOnes) {
  LeaseTable live(8);
  const auto now = WallClock::now();
  const auto lease = live.grant(1, 4, now, 1000ms);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(live.complete(lease->lease_id, 0), CompletionResult::kAccepted);
  EXPECT_EQ(live.complete(lease->lease_id, 3), CompletionResult::kAccepted);
  // Saved now: 0 and 3 done, 1 and 2 in flight, 4 to 7 never issued.
  LeaseTable restored(8);
  for (std::size_t i = 0; i < 8; ++i) {
    if (live.state(i) == TrialState::kDone) restored.mark_done(i);
  }
  EXPECT_EQ(restored.done_count(), 2u);
  const auto first = restored.grant(1, 3, now, 1000ms);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->trials, (std::vector<std::size_t>{1, 2, 4}));
  EXPECT_EQ(restored.stats().trials_stolen, 0u);  // a new table: nothing stolen yet
}

TEST(FleetRemoteLease, AllDoneOnlyWhenEveryTrialCompleted) {
  LeaseTable table(2);
  EXPECT_FALSE(table.all_done());
  table.mark_done(0);
  table.mark_done(0);  // idempotent
  EXPECT_EQ(table.done_count(), 1u);
  table.mark_done(1);
  EXPECT_TRUE(table.all_done());
  EXPECT_FALSE(table.work_available() &&
               table.grant(1, 1, WallClock::now(), 1000ms).has_value());
}

// ---------------------------------------------------------- checkpoint ----

FleetCheckpoint sample_checkpoint() {
  FleetCheckpoint checkpoint;
  checkpoint.fingerprint = 0xFEEDFACE;
  checkpoint.trial_count = 8;
  TrialOutcome done;
  done.spec = {2, 0, 2, 0xABCD, sim::Duration{1'000}};
  done.status = TrialStatus::kCompleted;
  done.stop_reason = fuzzer::StopReason::kFailureDetected;
  done.frames_sent = 55;
  done.sim_seconds = 2.5;
  done.time_to_failure = 0.5;
  done.findings = {"unlock \"quoted\"\nnewline", ""};
  TrialOutcome failed;
  failed.spec = {5, 1, 2, 0x1111, sim::Duration{1'000}};
  failed.status = TrialStatus::kFailed;
  failed.error = "world threw: % weird % text";
  checkpoint.completed = {done, failed};
  return checkpoint;
}

std::optional<FleetCheckpoint> decode_checkpoint(const std::vector<std::uint8_t>& bytes) {
  return FleetCheckpoint::decode(bytes);
}

TEST(FleetRemoteCheckpoint, RoundTripsThroughTheRecord) {
  const FleetCheckpoint original = sample_checkpoint();
  const std::vector<std::uint8_t> bytes = original.encode();
  const std::optional<FleetCheckpoint> restored = decode_checkpoint(bytes);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->fingerprint, original.fingerprint);
  EXPECT_EQ(restored->trial_count, original.trial_count);
  ASSERT_EQ(restored->completed.size(), original.completed.size());
  for (std::size_t i = 0; i < original.completed.size(); ++i) {
    // Every field crosses, the spec included: it is the wire's own record.
    EXPECT_TRUE(outcomes_equal(restored->completed[i], original.completed[i]))
        << "trial " << original.completed[i].spec.trial_index;
  }
  EXPECT_EQ(restored->encode(), bytes);  // fixed point
}

TEST(FleetRemoteCheckpoint, RejectsMalformedRecords) {
  const std::vector<std::uint8_t> good = sample_checkpoint().encode();
  EXPECT_TRUE(decode_checkpoint(good).has_value());
  EXPECT_FALSE(decode_checkpoint({}).has_value());
  const std::string garbage = "garbage";
  EXPECT_FALSE(decode_checkpoint({garbage.begin(), garbage.end()}).has_value());
  std::vector<std::uint8_t> wrong_magic = good;
  wrong_magic[0] ^= 0xFF;
  EXPECT_FALSE(decode_checkpoint(wrong_magic).has_value());
  // The text format's version and the binary record with the in-flight list.
  for (const int version : {1, 2}) {
    std::vector<std::uint8_t> wrong_version = good;
    wrong_version[4] = static_cast<std::uint8_t>(version);
    EXPECT_FALSE(decode_checkpoint(wrong_version).has_value()) << version;
  }
  for (std::size_t cut = 1; cut <= good.size(); ++cut) {
    EXPECT_FALSE(
        decode_checkpoint({good.begin(), good.end() - static_cast<std::ptrdiff_t>(cut)}))
        << "truncated by " << cut;
  }
  std::vector<std::uint8_t> padded = good;
  padded.push_back(0);
  EXPECT_FALSE(decode_checkpoint(padded).has_value());

  // Declared counts beyond the plan or the bytes left fail before any
  // allocation: 2^32-1 completed records, and a plan of 2^64-1 trials.
  const auto header = [&good](std::uint64_t trials) {
    util::ByteReader prefix(good);
    util::ByteWriter w;
    w.u32(prefix.u32());  // magic
    w.u32(prefix.u32());  // version
    w.u64(prefix.u64());  // fingerprint
    w.u64(trials);
    return w;
  };
  util::ByteWriter huge_done = header(8);
  huge_done.u32(0xFFFFFFFFu);
  EXPECT_FALSE(decode_checkpoint(huge_done.bytes()).has_value());
  util::ByteWriter huge_plan = header(~std::uint64_t{0});
  huge_plan.u32(0);
  EXPECT_FALSE(decode_checkpoint(huge_plan.bytes()).has_value());

  // Completed records out of order, or outside the plan.
  FleetCheckpoint unordered = sample_checkpoint();
  std::swap(unordered.completed[0], unordered.completed[1]);
  EXPECT_FALSE(decode_checkpoint(unordered.encode()).has_value());
  FleetCheckpoint outside = sample_checkpoint();
  outside.completed[1].spec.trial_index = 8;
  EXPECT_FALSE(decode_checkpoint(outside.encode()).has_value());
}

TEST(FleetRemoteCheckpoint, RejectsTheParentTextFormat) {
  const std::string path =
      testing::TempDir() + "fleet_ck_text_" + std::to_string(::getpid()) + ".txt";
  {
    std::ofstream out(path);
    out << "ACF-FLEET-CAMPAIGN 1\nfingerprint 1\ntrials 4\ndone 0\nleased 0\nend\n";
  }
  EXPECT_FALSE(FleetCheckpoint::load(path).has_value());
  std::remove(path.c_str());
}

TEST(FleetRemoteCheckpoint, SaveIsAtomicAndLoadRestores) {
  const std::string path =
      testing::TempDir() + "fleet_ck_" + std::to_string(::getpid()) + ".bin";
  const FleetCheckpoint original = sample_checkpoint();
  ASSERT_TRUE(original.save(path));
  const std::optional<FleetCheckpoint> loaded = FleetCheckpoint::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->encode(), original.encode());
  EXPECT_FALSE(FleetCheckpoint::load(path + ".missing").has_value());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());  // renamed, not left behind
  std::remove(path.c_str());
}

/// A stored outcome whose spec is not the plan's is corruption, rejected
/// the same way a forged LeaseResult is.
TEST(FleetRemoteCheckpoint, CoordinatorRejectsAStoredSpecThatDiffersFromThePlan) {
  const TrialPlan plan = fast_plan(2);
  const std::string path =
      testing::TempDir() + "fleet_ck_spec_" + std::to_string(::getpid()) + ".bin";
  FleetCheckpoint checkpoint;
  checkpoint.fingerprint = campaign_fingerprint(plan, "fast");
  checkpoint.trial_count = plan.trial_count();
  TrialOutcome outcome;
  outcome.spec = plan.spec(1);
  outcome.status = TrialStatus::kCompleted;
  checkpoint.completed = {outcome};
  CoordinatorConfig config;
  config.world_tag = "fast";
  config.checkpoint_path = path;

  ASSERT_TRUE(checkpoint.save(path));
  EXPECT_NO_THROW({ Coordinator resumed(plan, config); });  // the plan's own spec

  checkpoint.completed[0].spec.seed ^= 1;
  ASSERT_TRUE(checkpoint.save(path));
  try {
    Coordinator coordinator(plan, config);
    ADD_FAILURE() << "a forged spec was resumed";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("corrupt campaign checkpoint"), std::string::npos)
        << error.what();
  }
  std::remove(path.c_str());
}

/// A checkpoint an earlier build wrote (v2 also listed the trials in flight)
/// is refused by its format version, not called corrupt, and left as it was.
TEST(FleetRemoteCheckpoint, CoordinatorNamesTheFormatVersionOfAnOlderCheckpoint) {
  const TrialPlan plan = fast_plan(2);
  const std::string path =
      testing::TempDir() + "fleet_ck_v2_" + std::to_string(::getpid()) + ".bin";
  FleetCheckpoint checkpoint;
  checkpoint.fingerprint = campaign_fingerprint(plan, "fast");
  checkpoint.trial_count = plan.trial_count();
  // This empty checkpoint in the v2 layout: version 2, and an empty
  // in-flight list after the completed records.
  std::vector<std::uint8_t> v2 = checkpoint.encode();
  v2[4] = 2;
  v2.insert(v2.end(), 4, 0);
  EXPECT_EQ(FleetCheckpoint::version_of(v2), 2u);
  EXPECT_EQ(FleetCheckpoint::version_of(checkpoint.encode()), FleetCheckpoint::kVersion);
  ASSERT_TRUE(util::replace_file(path, v2));
  CoordinatorConfig config;
  config.world_tag = "fast";
  config.checkpoint_path = path;
  try {
    Coordinator coordinator(plan, config);
    ADD_FAILURE() << "a v2 checkpoint was resumed";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path + " is format v2 and this build reads v3"), std::string::npos)
        << what;
  }
  EXPECT_EQ(util::read_file(path), v2);
  std::remove(path.c_str());
}

/// A final write that fails after a good start shows in checkpoint_saved(),
/// which the runner reports on stderr.
TEST(FleetRemoteCheckpoint, FailedFinalWriteIsNotReportedAsSaved) {
  const TrialPlan plan = fast_plan(1);
  const std::filesystem::path dir =
      testing::TempDir() + "fleet_ck_dir_" + std::to_string(::getpid());
  std::filesystem::create_directory(dir);
  CoordinatorConfig config;
  config.world_tag = "fast";
  config.checkpoint_path = (dir / "c.ckpt").string();
  Coordinator coordinator(plan, config);
  EXPECT_TRUE(coordinator.checkpoint_saved());
  std::filesystem::remove_all(dir);

  std::thread server([&] { coordinator.serve(); });
  WorkerConfig wc;
  wc.port = coordinator.port();
  wc.world_tag = "fast";
  Worker worker(plan, fast_unlock_factory(), wc);
  EXPECT_EQ(worker.run().exit, WorkerExit::kCampaignComplete);
  server.join();
  EXPECT_EQ(coordinator.done_count(), plan.trial_count());
  EXPECT_FALSE(coordinator.checkpoint_saved());
}

// ----------------------------------------------------------- reconnect ----

TEST(FleetRemoteReconnect, FirstAttemptIsImmediateAndGiveUpBounds) {
  ReconnectGate gate(/*jitter_seed=*/1, /*give_up_after=*/2);
  EXPECT_EQ(gate.next_delay(), std::chrono::milliseconds(0));
  gate.note_failure();
  const auto backoff = gate.next_delay();
  ASSERT_TRUE(backoff.has_value());
  EXPECT_GE(*backoff, std::chrono::microseconds(200));
  gate.note_failure();
  EXPECT_FALSE(gate.next_delay().has_value());  // exhausted
  EXPECT_EQ(gate.stats().failures, 2u);
}

TEST(FleetRemoteReconnect, SuccessResetsTheGate) {
  ReconnectGate gate(/*jitter_seed=*/1, /*give_up_after=*/2);
  (void)gate.next_delay();
  gate.note_failure();
  gate.note_success();
  EXPECT_EQ(gate.next_delay(), std::chrono::milliseconds(0));
  EXPECT_EQ(gate.consecutive_failures(), 0u);
}

TEST(FleetRemoteReconnect, BreakerTripsEscalatesAndRecovers) {
  using State = ReconnectGate::BreakerState;
  ReconnectGate gate(/*jitter_seed=*/1);
  for (int failure = 1; failure < 8; ++failure) gate.note_failure();
  EXPECT_EQ(gate.state(), State::kClosed);
  gate.note_failure();  // the 8th consecutive failure trips it
  EXPECT_EQ(gate.state(), State::kOpen);
  // Open window: wait out the nominal 100 ms, half-open for the probe.
  EXPECT_EQ(gate.next_delay(), std::chrono::milliseconds(100));
  EXPECT_EQ(gate.state(), State::kHalfOpen);
  gate.note_failure();  // probe failed: re-open, escalated window
  EXPECT_EQ(gate.state(), State::kOpen);
  EXPECT_EQ(gate.next_delay(), std::chrono::milliseconds(200));
  gate.note_success();
  EXPECT_EQ(gate.state(), State::kClosed);
  EXPECT_EQ(gate.stats().breaker_trips, 2u);
  EXPECT_EQ(gate.stats().breaker_recoveries, 1u);
  // A success restores the nominal window for the next outage.
  for (int failure = 1; failure <= 8; ++failure) gate.note_failure();
  EXPECT_EQ(gate.state(), State::kOpen);
  EXPECT_EQ(gate.next_delay(), std::chrono::milliseconds(100));
}

/// Workers that lose one coordinator must not retry in lockstep: the
/// backoff's jitter follows the seed, which a worker draws at random.
TEST(FleetRemoteReconnect, JitterFollowsTheSeed) {
  const auto delays = [](std::uint64_t seed) {
    ReconnectGate gate(seed);
    std::vector<std::chrono::microseconds> waits;
    for (int outage = 0; outage < 8; ++outage) {
      // Seven failures stay below the breaker, so every wait is a backoff.
      for (int failure = 0; failure <= 7; ++failure) {
        waits.push_back(gate.next_delay().value());
        if (failure < 7) gate.note_failure();
      }
      gate.note_success();
    }
    return waits;
  };
  const auto first = delays(0x1DB01DB0CAFEF00Dull);
  const auto second = delays(0x5EED5EED5EED5EEDull);
  EXPECT_EQ(first, delays(0x1DB01DB0CAFEF00Dull));
  EXPECT_NE(first, second);
  // The jitter acts from the first backoff on: the n-th wait is 200 us *
  // 2^(n-1) stretched by up to a quarter, and two seeds already differ
  // within the first four waits.
  for (const auto& waits : {first, second}) {
    for (std::size_t n = 1; n <= 4; ++n) {
      const std::chrono::microseconds base{200 << (n - 1)};
      EXPECT_GE(waits[n], base) << "wait " << n;
      EXPECT_LE(waits[n], base * 5 / 4) << "wait " << n;
    }
  }
  EXPECT_NE(std::vector(first.begin() + 1, first.begin() + 5),
            std::vector(second.begin() + 1, second.begin() + 5));
}

// ------------------------------------------------------------ progress ----

TEST(FleetRemoteProgress, ToleratesOutOfOrderAndDuplicateCompletions) {
  metrics::Registry registry;
  ProgressReporter progress(registry);
  progress.begin(10, /*already_done=*/4);  // a resumed checkpoint
  EXPECT_NE(progress.line().find("4/10 trials"), std::string::npos) << progress.line();
  TrialOutcome late;
  late.spec.trial_index = 9;  // completion order is not index order
  late.status = TrialStatus::kCompleted;
  TrialOutcome early;
  early.spec.trial_index = 0;
  early.status = TrialStatus::kFailed;
  progress.record(late);
  progress.record(early);
  progress.record_duplicate();
  // The status line counts the resumed trials; the registry counters are
  // this session's, and duplicates never advance either.
  EXPECT_NE(progress.line().find("6/10 trials (1 errors)"), std::string::npos)
      << progress.line();
  EXPECT_EQ(registry.counter("fleet.progress.completed").value(), 2u);
  EXPECT_EQ(registry.counter("fleet.progress.duplicates").value(), 1u);
  EXPECT_EQ(registry.counter("fleet.progress.errors").value(), 1u);
}

TEST(FleetRemoteProgress, LeaseCountersAreFirstClassInTheStatusLine) {
  metrics::Registry registry;
  ProgressReporter progress(registry);
  progress.begin(8);
  EXPECT_EQ(progress.line().find("leases"), std::string::npos);  // local fleet: absent
  progress.set_lease_counters(3, 2, 1);
  EXPECT_EQ(registry.gauge("fleet.leases.outstanding").value(), 3);
  EXPECT_EQ(registry.counter("fleet.leases.trials_stolen").value(), 2u);
  EXPECT_EQ(registry.counter("fleet.leases.expired").value(), 1u);
  const std::string line = progress.line();
  EXPECT_NE(line.find("leases out 3"), std::string::npos) << line;
  EXPECT_NE(line.find("stolen 2"), std::string::npos) << line;
  EXPECT_NE(line.find("expired 1"), std::string::npos) << line;
}

// ---------------------------------------------------------- end-to-end ----

TEST(FleetRemoteEndToEnd, TwoWorkersMatchTheExecutorByteForByte) {
  const TrialPlan plan = fast_plan(4);  // 8 trials
  const std::string reference = jsonl_of(plan, reference_outcomes(plan));

  CoordinatorConfig config;
  config.world_tag = "fast";
  config.max_batch = 2;
  Coordinator coordinator(plan, config);

  std::vector<TrialOutcome> outcomes;
  std::thread server([&] { outcomes = coordinator.serve(); });
  auto run_worker = [&](WorkerResult& result) {
    WorkerConfig wc;
    wc.port = coordinator.port();
    wc.threads = 2;
    wc.world_tag = "fast";
    wc.heartbeat_period = std::chrono::milliseconds(200);
    Worker worker(plan, fast_unlock_factory(), wc);
    result = worker.run();
  };
  WorkerResult r1, r2;
  std::thread w1(run_worker, std::ref(r1));
  std::thread w2(run_worker, std::ref(r2));
  w1.join();
  w2.join();
  server.join();

  EXPECT_EQ(r1.exit, WorkerExit::kCampaignComplete);
  EXPECT_EQ(r2.exit, WorkerExit::kCampaignComplete);
  EXPECT_GE(r1.trials_run + r2.trials_run, plan.trial_count());
  EXPECT_EQ(jsonl_of(plan, outcomes), reference);
  EXPECT_EQ(coordinator.stats().workers_connected, 2u);
}

/// The metrics half of the determinism contract: the coordinator's merged
/// fleet-wide view (its own registry + the workers' heartbeat totals) must
/// carry exactly the counters an in-process run produces — same names, same
/// values — and timers must agree on count/sum/min/max.  Quantile accuracy
/// is covered separately (metrics_test); CKMS layouts are order-dependent.
TEST(FleetRemoteEndToEnd, MergedMetricsMatchTheInProcessRegistryExactly) {
  const TrialPlan plan = fast_plan(4);  // 8 trials

  metrics::Registry local;
  ExecutorConfig reference_config;
  reference_config.threads = 2;
  reference_config.registry = &local;
  Executor executor(reference_config);
  executor.run(plan, fast_unlock_factory(&local));
  const metrics::RegistrySnapshot reference = local.snapshot();
  ASSERT_FALSE(reference.counters.empty());

  CoordinatorConfig config;
  config.world_tag = "fast";
  config.max_batch = 2;
  Coordinator coordinator(plan, config);
  std::thread server([&] { coordinator.serve(); });
  metrics::Registry worker_registries[2];
  auto run_worker = [&](metrics::Registry& registry) {
    WorkerConfig wc;
    wc.port = coordinator.port();
    wc.threads = 2;
    wc.world_tag = "fast";
    wc.heartbeat_period = std::chrono::milliseconds(100);
    wc.registry = &registry;
    Worker worker(plan, fast_unlock_factory(&registry), wc);
    const WorkerResult result = worker.run();
    EXPECT_EQ(result.exit, WorkerExit::kCampaignComplete);
  };
  std::thread w1(run_worker, std::ref(worker_registries[0]));
  std::thread w2(run_worker, std::ref(worker_registries[1]));
  w1.join();
  w2.join();
  server.join();

  const metrics::RegistrySnapshot merged = coordinator.merged_metrics();
  ASSERT_EQ(merged.counters.size(), reference.counters.size());
  for (std::size_t i = 0; i < reference.counters.size(); ++i) {
    EXPECT_EQ(merged.counters[i].name, reference.counters[i].name);
    EXPECT_EQ(merged.counters[i].value, reference.counters[i].value)
        << merged.counters[i].name;
  }
  ASSERT_EQ(merged.timers.size(), reference.timers.size());
  for (std::size_t i = 0; i < reference.timers.size(); ++i) {
    const metrics::TimerSnap& m = merged.timers[i];
    const metrics::TimerSnap& r = reference.timers[i];
    EXPECT_EQ(m.name, r.name);
    EXPECT_EQ(m.count, r.count) << m.name;
    EXPECT_NEAR(m.sum, r.sum, 1e-9 * std::max(1.0, std::abs(r.sum))) << m.name;
    EXPECT_DOUBLE_EQ(m.min, r.min) << m.name;
    EXPECT_DOUBLE_EQ(m.max, r.max) << m.name;
  }
}

/// Quantiles never cross the wire, so the merged view recomputes them from
/// the shipped CKMS samples, also for a timer only one worker shipped: each
/// lies inside the timer's [min, max] and equals the worker's own.
TEST(FleetRemoteEndToEnd, MergedQuantilesOfASingleWorkersTimersComeFromItsSamples) {
  const TrialPlan plan = fast_plan(2);  // 4 trials
  CoordinatorConfig config;
  config.world_tag = "fast";
  Coordinator coordinator(plan, config);
  std::thread server([&] { coordinator.serve(); });
  metrics::Registry worker_registry;
  WorkerConfig wc;
  wc.port = coordinator.port();
  wc.threads = 2;
  wc.world_tag = "fast";
  wc.registry = &worker_registry;
  Worker worker(plan, fast_unlock_factory(&worker_registry), wc);
  EXPECT_EQ(worker.run().exit, WorkerExit::kCampaignComplete);
  server.join();

  const metrics::RegistrySnapshot merged = coordinator.merged_metrics();
  const metrics::RegistrySnapshot own = worker_registry.snapshot();
  ASSERT_EQ(merged.timers.size(), own.timers.size());
  ASSERT_FALSE(merged.timers.empty());
  for (std::size_t i = 0; i < own.timers.size(); ++i) {
    const metrics::TimerSnap& m = merged.timers[i];
    EXPECT_EQ(m.count, own.timers[i].count) << m.name;
    if (m.count == 0) continue;
    for (const double q : {m.p50, m.p90, m.p99, m.p999}) {
      EXPECT_GE(q, m.min) << m.name;
      EXPECT_LE(q, m.max) << m.name;
    }
    EXPECT_DOUBLE_EQ(m.p50, own.timers[i].p50) << m.name;
  }
}

/// The coordinator's stream comes from the same reporter as an in-process
/// one: eight accepted results at interval 3 give lines at the 3rd and 6th,
/// then finish()'s final line, which shows the merged fleet-wide view.
TEST(FleetRemoteEndToEnd, SnapshotLineEveryNthResultThenTheMergedFinalLine) {
  const TrialPlan plan = fast_plan(4);  // 8 trials
  metrics::Registry registry;
  CoordinatorConfig config;
  config.world_tag = "fast";
  config.max_batch = 2;
  config.registry = &registry;
  Coordinator coordinator(plan, config);
  std::ostringstream stream;
  metrics::SnapshotWriter writer(stream, "coordinator");
  ProgressReporter progress(registry, &writer, 3);
  progress.set_snapshot_source([&] { return coordinator.merged_metrics(); });

  std::thread server([&] { coordinator.serve(&progress); });
  metrics::Registry worker_registries[2];
  auto run_worker = [&](metrics::Registry& worker_registry) {
    WorkerConfig wc;
    wc.port = coordinator.port();
    wc.threads = 2;
    wc.world_tag = "fast";
    wc.heartbeat_period = std::chrono::milliseconds(100);
    wc.registry = &worker_registry;
    Worker worker(plan, fast_unlock_factory(&worker_registry), wc);
    EXPECT_EQ(worker.run().exit, WorkerExit::kCampaignComplete);
  };
  std::thread w1(run_worker, std::ref(worker_registries[0]));
  std::thread w2(run_worker, std::ref(worker_registries[1]));
  w1.join();
  w2.join();
  server.join();
  progress.finish();

  std::vector<metrics::SnapshotLine> lines;
  std::istringstream in(stream.str());
  for (std::string text; std::getline(in, text);) {
    std::optional<metrics::SnapshotLine> line = metrics::parse_snapshot_line(text);
    ASSERT_TRUE(line.has_value()) << text;
    lines.push_back(std::move(*line));
  }
  ASSERT_EQ(lines.size(), 3u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(lines[i].seq, i + 1);
    EXPECT_EQ(lines[i].source, "coordinator");
  }
  const metrics::RegistrySnapshot merged = coordinator.merged_metrics();
  const std::vector<metrics::CounterSnap>& last = lines[2].registry.counters;
  ASSERT_EQ(last.size(), merged.counters.size());
  for (std::size_t i = 0; i < last.size(); ++i) {
    EXPECT_EQ(last[i].name, merged.counters[i].name);
    EXPECT_EQ(last[i].value, merged.counters[i].value) << last[i].name;
  }
  EXPECT_EQ(registry.counter("fleet.progress.completed").value(), plan.trial_count());
}

/// Raw protocol client: takes a lease, never finishes it, hangs up.
void take_lease_and_vanish(const TrialPlan& plan, std::uint16_t port,
                           const std::string& world_tag) {
  std::optional<util::Fd> fd = util::tcp_connect("127.0.0.1", port);
  ASSERT_TRUE(fd.has_value());
  HelloMsg hello;
  hello.fingerprint = campaign_fingerprint(plan, world_tag);
  const std::vector<std::uint8_t> frame = frame_message(Message{hello});
  ASSERT_EQ(util::socket_write(fd->get(), frame).bytes, frame.size());
  const std::vector<std::uint8_t> request = frame_message(Message{LeaseRequestMsg{2}});
  ASSERT_EQ(util::socket_write(fd->get(), request).bytes, request.size());

  // Read until Welcome then LeaseGrant arrive.
  FrameReader reader;
  bool granted = false;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!granted && std::chrono::steady_clock::now() < deadline) {
    std::uint8_t chunk[512];
    const auto read = util::socket_read(fd->get(), chunk);
    if (read.status == util::IoStatus::kWouldBlock) {
      std::this_thread::sleep_for(1ms);
      continue;
    }
    ASSERT_EQ(read.status, util::IoStatus::kOk);
    ASSERT_TRUE(reader.feed(std::span<const std::uint8_t>(chunk, read.bytes)));
    while (auto payload = reader.next()) {
      const auto message = decode(*payload);
      ASSERT_TRUE(message.has_value());
      if (std::holds_alternative<LeaseGrantMsg>(*message)) granted = true;
    }
  }
  ASSERT_TRUE(granted);
  fd.reset();  // abrupt close: two trials die with this connection
}

TEST(FleetRemoteEndToEnd, DisconnectedWorkersTrialsAreStolenAndCampaignCompletes) {
  const TrialPlan plan = fast_plan(2);  // 4 trials
  const std::string reference = jsonl_of(plan, reference_outcomes(plan));

  CoordinatorConfig config;
  config.world_tag = "fast";
  config.max_batch = 2;
  Coordinator coordinator(plan, config);
  std::vector<TrialOutcome> outcomes;
  metrics::Registry registry;
  ProgressReporter progress(registry);
  std::thread server([&] { outcomes = coordinator.serve(&progress); });

  take_lease_and_vanish(plan, coordinator.port(), "fast");

  WorkerConfig wc;
  wc.port = coordinator.port();
  wc.threads = 2;
  wc.world_tag = "fast";
  Worker worker(plan, fast_unlock_factory(), wc);
  const WorkerResult result = worker.run();
  server.join();

  EXPECT_EQ(result.exit, WorkerExit::kCampaignComplete);
  EXPECT_EQ(jsonl_of(plan, outcomes), reference);
  const CoordinatorStats& stats = coordinator.stats();
  EXPECT_EQ(stats.leases.leases_released, 1u);   // the vanished connection
  EXPECT_EQ(stats.leases.trials_stolen, 2u);     // its batch, re-issued
  EXPECT_EQ(registry.counter("fleet.leases.trials_stolen").value(), 2u);  // surfaced
  EXPECT_EQ(registry.counter("fleet.progress.completed").value(), plan.trial_count());
}

/// Raw protocol client: sends a frame whose type byte the protocol does not
/// define, after a Hello or in place of one, and waits for the coordinator
/// to hang up.
void send_unknown_type_and_get_dropped(const TrialPlan& plan, std::uint16_t port,
                                       const std::string& world_tag, bool after_hello) {
  std::optional<util::Fd> fd = util::tcp_connect("127.0.0.1", port);
  ASSERT_TRUE(fd.has_value());
  std::vector<std::uint8_t> stream;
  if (after_hello) {
    HelloMsg hello;
    hello.fingerprint = campaign_fingerprint(plan, world_tag);
    stream = frame_message(Message{hello});
  }
  const std::uint8_t unknown[] = {4, 0, 0, 0, 0x7F, 0x01, 0x02, 0x03};  // length, type, body
  stream.insert(stream.end(), std::begin(unknown), std::end(unknown));
  ASSERT_EQ(util::socket_write(fd->get(), stream).bytes, stream.size());

  // A Welcome may arrive first; then the connection must close.
  FrameReader reader;
  bool closed = false;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (!closed && std::chrono::steady_clock::now() < deadline) {
    std::uint8_t chunk[512];
    const auto read = util::socket_read(fd->get(), chunk);
    if (read.status == util::IoStatus::kWouldBlock) {
      std::this_thread::sleep_for(1ms);
      continue;
    }
    if (read.status != util::IoStatus::kOk) {
      closed = true;
      continue;
    }
    ASSERT_TRUE(reader.feed(std::span<const std::uint8_t>(chunk, read.bytes)));
    while (auto payload = reader.next()) {
      const auto message = decode(*payload);
      ASSERT_TRUE(message.has_value());
      EXPECT_TRUE(after_hello && std::holds_alternative<WelcomeMsg>(*message));
    }
  }
  EXPECT_TRUE(closed);
}

/// A type byte outside the protocol is a protocol error like any malformed
/// payload, before the handshake or after it: the coordinator drops that
/// connection at once and the campaign goes on with the real worker.
TEST(FleetRemoteEndToEnd, UnknownMessageTypeDropsTheClientAndTheCampaignCompletes) {
  const TrialPlan plan = fast_plan(2);  // 4 trials
  const std::string reference = jsonl_of(plan, reference_outcomes(plan));

  CoordinatorConfig config;
  config.world_tag = "fast";
  config.max_batch = 2;
  Coordinator coordinator(plan, config);
  std::vector<TrialOutcome> outcomes;
  std::thread server([&] { outcomes = coordinator.serve(); });

  send_unknown_type_and_get_dropped(plan, coordinator.port(), "fast", /*after_hello=*/false);
  send_unknown_type_and_get_dropped(plan, coordinator.port(), "fast", /*after_hello=*/true);

  WorkerConfig wc;
  wc.port = coordinator.port();
  wc.threads = 2;
  wc.world_tag = "fast";
  Worker worker(plan, fast_unlock_factory(), wc);
  const WorkerResult result = worker.run();
  server.join();

  EXPECT_EQ(result.exit, WorkerExit::kCampaignComplete);
  EXPECT_EQ(jsonl_of(plan, outcomes), reference);
  const CoordinatorStats& stats = coordinator.stats();
  EXPECT_EQ(stats.protocol_errors, 2u);
  EXPECT_EQ(stats.workers_connected, 2u);     // the raw client's Hello, then the worker
  EXPECT_EQ(stats.workers_disconnected, 1u);  // the raw client, dropped after its Hello
}

TEST(FleetRemoteEndToEnd, WorkerWithWrongCampaignIsRejected) {
  const TrialPlan plan = fast_plan(1);
  CoordinatorConfig config;
  config.world_tag = "fast";
  Coordinator coordinator(plan, config);
  std::vector<TrialOutcome> outcomes;
  std::thread server([&] { outcomes = coordinator.serve(); });

  const TrialPlan other({"weak", "hardened"}, 1, 0xD1FFULL);  // different seed
  WorkerConfig wc;
  wc.port = coordinator.port();
  wc.world_tag = "fast";
  Worker mismatched(other, fast_unlock_factory(), wc);
  const WorkerResult rejected = mismatched.run();
  EXPECT_EQ(rejected.exit, WorkerExit::kRejected);

  WorkerConfig ok = wc;
  Worker good(plan, fast_unlock_factory(), ok);
  EXPECT_EQ(good.run().exit, WorkerExit::kCampaignComplete);
  server.join();
  EXPECT_EQ(coordinator.stats().workers_rejected, 1u);
}

TEST(FleetRemoteEndToEnd, WorkerGivesUpWhenNoCoordinatorExists) {
  const TrialPlan plan = fast_plan(1);
  WorkerConfig wc;
  wc.port = 1;  // privileged port nobody binds in the test environment
  wc.world_tag = "fast";
  wc.give_up_after = 3;
  Worker worker(plan, fast_unlock_factory(), wc);
  const WorkerResult result = worker.run();
  EXPECT_EQ(result.exit, WorkerExit::kGaveUp);
  EXPECT_EQ(result.reconnect.failures, 3u);
  EXPECT_EQ(result.trials_run, 0u);
}

// ------------------------------------------------- process-level crash ----

std::string temp_path(const std::string& stem) {
  return testing::TempDir() + stem + "_" + std::to_string(::getpid());
}

/// Runs fleet_run with `args`, its stderr to `stderr_path` and its stdout
/// to `stdout_path`; a run still going after `timeout_s` seconds is killed
/// (exit status 124).
int run_fleet_bin(const std::string& args, int timeout_s = 120,
                  const std::string& stderr_path = "/dev/null",
                  const std::string& stdout_path = "/dev/null") {
  const std::string command = "timeout " + std::to_string(timeout_s) + " " +
                              std::string(ACF_FLEET_RUN_BIN) + " " + args + " > " +
                              stdout_path + " 2> " + stderr_path;
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The acceptance contract: a campaign whose worker process is SIGKILLed
/// mid-run completes with byte-identical JSONL to an uninterrupted fleet.
TEST(FleetRemoteProcess, SigkilledWorkerDoesNotChangeTheCampaignOutput) {
  const TrialPlan plan = fast_plan(4);
  const std::string reference = jsonl_of(plan, reference_outcomes(plan));
  const std::string jsonl = temp_path("kill") + ".jsonl";
  const int exit_code = run_fleet_bin(
      "--fast-world --runs 4 --threads 2 --serve 0 --workers 3 "
      "--kill-worker-after 1 --jsonl " + jsonl);
  EXPECT_EQ(exit_code, 0);
  EXPECT_EQ(slurp(jsonl), reference);
  std::remove(jsonl.c_str());
}

/// And the coordinator side: pause after N trials (checkpoint), restart,
/// resume — byte-identical to the same binary's in-process run, without
/// recomputing finished trials, for every kind of world.
TEST(FleetRemoteProcess, CoordinatorRestartResumesFromCheckpoint) {
  for (const char* world : {"--fast-world --runs 4", "--feedback --runs 4", "--attacks --runs 1"}) {
    SCOPED_TRACE(world);
    const std::string checkpoint = temp_path("resume") + ".ck";
    const std::string reference = temp_path("resume_reference") + ".jsonl";
    const std::string jsonl = temp_path("resume") + ".jsonl";
    const std::string campaign = std::string(world) + " --threads 2 --serve 0 --workers 2 ";

    ASSERT_EQ(run_fleet_bin(std::string(world) + " --jsonl " + reference), 0);
    const int pause_exit = run_fleet_bin(campaign + "--stop-after 3 --checkpoint " + checkpoint);
    EXPECT_EQ(pause_exit, 0);
    const std::optional<FleetCheckpoint> saved = FleetCheckpoint::load(checkpoint);
    ASSERT_TRUE(saved.has_value());
    EXPECT_GE(saved->completed.size(), 3u);
    EXPECT_LT(saved->completed.size(), saved->trial_count);

    const int resume_exit =
        run_fleet_bin(campaign + "--checkpoint " + checkpoint + " --jsonl " + jsonl);
    EXPECT_EQ(resume_exit, 0);
    EXPECT_FALSE(slurp(reference).empty());
    EXPECT_EQ(slurp(jsonl), slurp(reference));
    std::remove(checkpoint.c_str());
    std::remove(reference.c_str());
    std::remove(jsonl.c_str());
  }
}

/// A pause whose checkpoint cannot be written has kept nothing: it must fail
/// and name the path, never report a checkpoint that does not exist.
TEST(FleetRemoteProcess, PauseIntoAMissingDirectoryExitsOne) {
  const std::string checkpoint = temp_path("no_such_dir") + "/c.ckpt";
  const std::string log = temp_path("pause_stderr") + ".txt";
  // A pause, and a whole campaign that would otherwise run unprotected.
  for (const char* pause : {"--stop-after 3 ", ""}) {
    SCOPED_TRACE(pause);
    const int exit_code = run_fleet_bin("--fast-world --runs 4 --threads 2 --serve 0 --workers 2 " +
                                            std::string(pause) + "--checkpoint " + checkpoint,
                                        120, log);
    EXPECT_EQ(exit_code, 1);
    EXPECT_FALSE(std::filesystem::exists(checkpoint));
    EXPECT_NE(slurp(log).find(checkpoint), std::string::npos) << slurp(log);
  }
  std::remove(log.c_str());
}

/// A malformed port or count must exit 2 at once, never run with a wrong
/// value (a port mod 65536, a run count's leading digits) or retry port 0.
/// So must a pause with nowhere to keep its trials (--stop-after without
/// --checkpoint), and more workers than trials (`--runs 1` is two trials),
/// before a single worker is forked.  A refused run prints nothing on
/// stdout: the report's header waits until the campaign is accepted.
TEST(FleetRemoteProcess, MalformedNumbersExitTwoAtOnce) {
  const std::string out = temp_path("refused_stdout") + ".txt";
  for (const char* args :
       {"--runs 1 --connect 127.0.0.1:", "--runs 1 --connect 127.0.0.1:70000",
        "--runs 1 --connect 127.0.0.1:0", "--runs 1 --connect 127.0.0.1:+4464",
        "--runs 1 --connect 127.0.0.1:0x1170", "--runs 1 --serve 70000", "--runs 2x",
        "--runs 1 --threads -1", "--runs 1 --metrics-out /dev/null --metrics-interval 1e3",
        "--runs 4 --threads 2 --serve 0 --workers 2 --stop-after 3",
        "--runs 1 --threads 2 --serve 0 --workers 3"}) {
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(run_fleet_bin(std::string("--fast-world ") + args, /*timeout_s=*/10, "/dev/null",
                            out),
              2)
        << args;
    EXPECT_LT(std::chrono::steady_clock::now() - start, 1s) << args;
    EXPECT_EQ(slurp(out), "") << args;
  }
  std::remove(out.c_str());
}

}  // namespace
}  // namespace acf::fleet::remote
