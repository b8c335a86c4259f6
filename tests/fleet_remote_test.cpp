// Distributed campaign service: wire protocol, lease table, campaign
// checkpoint, reconnect gate, progress counters, and the crash-tolerance
// end-to-end contract — a fleet served over sockets (including one whose
// worker dies mid-batch, and one whose coordinator restarts from its
// checkpoint) produces byte-identical JSONL to the in-process executor.
#include <sys/socket.h>
#include <sys/wait.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
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
#include "fleet/remote/wire.hpp"
#include "fleet/remote/worker.hpp"
#include "fleet/worlds.hpp"
#include "fuzzer/config.hpp"
#include "metrics/metrics.hpp"
#include "resilience/reconnect.hpp"
#include "util/bytes.hpp"
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
  config.progress_period = std::chrono::milliseconds(0);
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
  hello.capacity = 8;
  hello.worker_name = "w-1";
  hello.instance_id = 0x1DB01DB0CAFEF00Dull;
  WelcomeMsg welcome;
  welcome.fingerprint = 0xDEADBEEF;
  welcome.trial_count = 400;
  welcome.session = 7;
  LeaseGrantMsg grant;
  grant.lease_id = 42;
  grant.deadline_ms = 10'000;
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

  HeartbeatMsg beat_with_metrics{42, 2, std::nullopt};
  beat_with_metrics.metrics.emplace();
  beat_with_metrics.metrics->counters = {{"fleet.trial.completed", 7},
                                         {"sim.scheduler.heap_capacity_max", 256}};
  beat_with_metrics.metrics->gauges = {{"fleet.leases.outstanding", -1}};
  beat_with_metrics.metrics->timers = {
      {"fleet.trial.sim_seconds", 3, 6.5, 0.5, 4.0, {{0.5, 1, 0}, {2.0, 1, 0}, {4.0, 1, 0}}}};

  const std::vector<Message> messages = {
      Message{hello},         Message{welcome},
      Message{LeaseRequestMsg{4}}, Message{grant},
      Message{result},        Message{HeartbeatMsg{42, 2, std::nullopt}},
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
}

TEST(FleetRemoteWire, UnknownMessageTypeIsPreservedVerbatim) {
  const std::vector<std::uint8_t> payload = {0x7F, 0x01, 0x02, 0x03};
  const std::optional<Message> decoded = decode(payload);
  ASSERT_TRUE(decoded.has_value());
  const auto* unknown = std::get_if<UnknownMsg>(&*decoded);
  ASSERT_NE(unknown, nullptr);
  EXPECT_EQ(unknown->type, 0x7F);
  EXPECT_EQ(encode(*decoded), payload);
}

TEST(FleetRemoteWire, HostileDeclaredCountsAreRejectedNotAllocated) {
  // A LeaseGrant declaring 4 billion trials in a 16-byte payload.
  util::ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kLeaseGrant));
  w.u64(1);
  w.u32(0);
  w.u32(0xFFFFFFFFu);
  EXPECT_FALSE(decode(w.bytes()).has_value());
}

TEST(FleetRemoteWire, FrameReaderReassemblesByteByByte) {
  std::vector<std::uint8_t> stream = frame_message(Message{HeartbeatMsg{1, 2, std::nullopt}});
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
  beat.completed = 3;
  beat.metrics = MetricsUpdate{{{"fleet.trial.completed", 3}}, {}, {}};
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

TEST(FleetRemoteLease, CheckpointRestorePrioritisesInFlightTrials) {
  LeaseTable table(6);
  table.mark_done(0);
  table.mark_done(3);
  // Resume path: trials 4 and 5 were leased at save time; re-issue first.
  table.prioritise(5);
  table.prioritise(4);
  const auto lease = table.grant(1, 3, WallClock::now(), 1000ms);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->trials, (std::vector<std::size_t>{4, 5, 1}));
  EXPECT_EQ(table.leased_indices(), (std::vector<std::size_t>{1, 4, 5}));
  EXPECT_EQ(table.done_count(), 2u);
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
  checkpoint.completed = {{2, done}, {5, failed}};
  checkpoint.leased = {3, 6, 7};
  return checkpoint;
}

TEST(FleetRemoteCheckpoint, RoundTripsThroughText) {
  const FleetCheckpoint original = sample_checkpoint();
  const std::string text = original.to_string();
  const std::optional<FleetCheckpoint> restored = FleetCheckpoint::from_string(text);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->fingerprint, original.fingerprint);
  EXPECT_EQ(restored->trial_count, original.trial_count);
  EXPECT_EQ(restored->leased, original.leased);
  ASSERT_EQ(restored->completed.size(), original.completed.size());
  for (std::size_t i = 0; i < original.completed.size(); ++i) {
    EXPECT_EQ(restored->completed[i].first, original.completed[i].first);
    // Specs are never stored — a resuming coordinator takes them from the
    // plan — so the round-trip contract covers every other field.
    TrialOutcome expected = original.completed[i].second;
    expected.spec = {};
    EXPECT_TRUE(outcomes_equal(restored->completed[i].second, expected))
        << "trial " << original.completed[i].first;
  }
  EXPECT_EQ(restored->to_string(), text);  // fixed point
}

TEST(FleetRemoteCheckpoint, RejectsMalformedText) {
  const std::string good = sample_checkpoint().to_string();
  EXPECT_TRUE(FleetCheckpoint::from_string(good).has_value());
  EXPECT_FALSE(FleetCheckpoint::from_string("").has_value());
  EXPECT_FALSE(FleetCheckpoint::from_string("ACF-FLEET-CAMPAIGN 999\nend\n").has_value());
  std::string wrong_magic = good;
  wrong_magic[0] = 'X';
  EXPECT_FALSE(FleetCheckpoint::from_string(wrong_magic).has_value());
  std::string truncated = good.substr(0, good.size() / 2);
  EXPECT_FALSE(FleetCheckpoint::from_string(truncated).has_value());
}

TEST(FleetRemoteCheckpoint, RejectsLeasedOverlappingCompleted) {
  FleetCheckpoint checkpoint = sample_checkpoint();
  checkpoint.leased = {2, 6};  // trial 2 is also recorded completed
  EXPECT_FALSE(FleetCheckpoint::from_string(checkpoint.to_string()).has_value());
}

TEST(FleetRemoteCheckpoint, SaveIsAtomicAndLoadRestores) {
  const std::string path =
      testing::TempDir() + "fleet_ck_" + std::to_string(::getpid()) + ".txt";
  const FleetCheckpoint original = sample_checkpoint();
  ASSERT_TRUE(original.save(path));
  const std::optional<FleetCheckpoint> loaded = FleetCheckpoint::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->to_string(), original.to_string());
  EXPECT_FALSE(FleetCheckpoint::load(path + ".missing").has_value());
  std::remove(path.c_str());
}

// ----------------------------------------------------------- reconnect ----

TEST(FleetRemoteReconnect, FirstAttemptIsImmediateAndGiveUpBounds) {
  resilience::ReconnectGate gate({}, {}, /*give_up_after=*/2);
  EXPECT_EQ(gate.next_delay(), std::chrono::milliseconds(0));
  gate.note_failure();
  const auto backoff = gate.next_delay();
  ASSERT_TRUE(backoff.has_value());
  EXPECT_GE(*backoff, std::chrono::milliseconds(1));
  gate.note_failure();
  EXPECT_FALSE(gate.next_delay().has_value());  // exhausted
  EXPECT_EQ(gate.stats().failures, 2u);
}

TEST(FleetRemoteReconnect, SuccessResetsTheGate) {
  resilience::ReconnectGate gate({}, {}, /*give_up_after=*/2);
  (void)gate.next_delay();
  gate.note_failure();
  gate.note_success();
  EXPECT_EQ(gate.next_delay(), std::chrono::milliseconds(0));
  EXPECT_EQ(gate.consecutive_failures(), 0u);
}

TEST(FleetRemoteReconnect, BreakerTripsEscalatesAndRecovers) {
  transport::CircuitBreakerPolicy breaker;
  breaker.failure_threshold = 2;
  breaker.open_duration = std::chrono::milliseconds(40);
  breaker.max_open_duration = std::chrono::milliseconds(100);
  resilience::ReconnectGate gate({}, breaker, 0);
  gate.note_failure();
  EXPECT_EQ(gate.state(), transport::BreakerState::kClosed);
  gate.note_failure();
  EXPECT_EQ(gate.state(), transport::BreakerState::kOpen);
  // Open window: wait it out, half-open for the probe.
  const auto open_wait = gate.next_delay();
  ASSERT_TRUE(open_wait.has_value());
  EXPECT_GE(*open_wait, std::chrono::milliseconds(40));
  EXPECT_EQ(gate.state(), transport::BreakerState::kHalfOpen);
  gate.note_failure();  // probe failed: re-open, escalated window
  EXPECT_EQ(gate.state(), transport::BreakerState::kOpen);
  const auto escalated = gate.next_delay();
  ASSERT_TRUE(escalated.has_value());
  EXPECT_GT(*escalated, *open_wait);
  EXPECT_LE(*escalated, std::chrono::milliseconds(100));
  gate.note_success();
  EXPECT_EQ(gate.state(), transport::BreakerState::kClosed);
  EXPECT_EQ(gate.stats().breaker_trips, 2u);
  EXPECT_EQ(gate.stats().breaker_recoveries, 1u);
}

// ------------------------------------------------------------ progress ----

TEST(FleetRemoteProgress, ToleratesOutOfOrderAndDuplicateCompletions) {
  ProgressReporter progress;
  progress.begin(10, /*already_done=*/4);
  EXPECT_EQ(progress.completed(), 4u);
  TrialOutcome late;
  late.spec.trial_index = 9;  // completion order is not index order
  late.status = TrialStatus::kCompleted;
  TrialOutcome early;
  early.spec.trial_index = 0;
  early.status = TrialStatus::kFailed;
  progress.record(late);
  progress.record(early);
  progress.record_duplicate();
  EXPECT_EQ(progress.completed(), 6u);  // duplicates never advance
  EXPECT_EQ(progress.duplicates(), 1u);
  EXPECT_EQ(progress.errors(), 1u);
  EXPECT_FALSE(progress.finished());
}

TEST(FleetRemoteProgress, LeaseCountersAreFirstClassInTheStatusLine) {
  ProgressReporter progress;
  progress.begin(8);
  EXPECT_EQ(progress.line().find("leases"), std::string::npos);  // local fleet: absent
  progress.set_lease_counters(3, 2, 1);
  EXPECT_EQ(progress.leases_outstanding(), 3u);
  EXPECT_EQ(progress.trials_stolen(), 2u);
  EXPECT_EQ(progress.leases_expired(), 1u);
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
  config.progress_period = std::chrono::milliseconds(0);
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
  reference_config.progress_period = std::chrono::milliseconds(0);
  reference_config.registry = &local;
  Executor executor(reference_config);
  executor.run(plan, fast_unlock_factory(&local));
  const metrics::RegistrySnapshot reference = local.snapshot();
  ASSERT_FALSE(reference.counters.empty());

  CoordinatorConfig config;
  config.world_tag = "fast";
  config.progress_period = std::chrono::milliseconds(0);
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

/// Raw protocol client: takes a lease, never finishes it, hangs up.
void take_lease_and_vanish(const TrialPlan& plan, std::uint16_t port,
                           const std::string& world_tag) {
  std::optional<util::Fd> fd = util::tcp_connect("127.0.0.1", port);
  ASSERT_TRUE(fd.has_value());
  HelloMsg hello;
  hello.fingerprint = campaign_fingerprint(plan, world_tag);
  hello.capacity = 2;
  hello.worker_name = "vanishing";
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
  config.progress_period = std::chrono::milliseconds(0);
  config.max_batch = 2;
  Coordinator coordinator(plan, config);
  std::vector<TrialOutcome> outcomes;
  ProgressReporter progress;
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
  EXPECT_EQ(progress.trials_stolen(), 2u);       // surfaced as a counter
  EXPECT_EQ(progress.completed(), plan.trial_count());
}

TEST(FleetRemoteEndToEnd, WorkerWithWrongCampaignIsRejected) {
  const TrialPlan plan = fast_plan(1);
  CoordinatorConfig config;
  config.world_tag = "fast";
  config.progress_period = std::chrono::milliseconds(0);
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

int run_fleet_bin(const std::string& args) {
  const std::string command = std::string(ACF_FLEET_RUN_BIN) + " " + args +
                              " > /dev/null 2> /dev/null";
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
/// resume — still byte-identical, without recomputing finished trials.
TEST(FleetRemoteProcess, CoordinatorRestartResumesFromCheckpoint) {
  const TrialPlan plan = fast_plan(4);
  const std::string reference = jsonl_of(plan, reference_outcomes(plan));
  const std::string checkpoint = temp_path("resume") + ".ck";
  const std::string jsonl = temp_path("resume") + ".jsonl";

  const int pause_exit = run_fleet_bin(
      "--fast-world --runs 4 --threads 2 --serve 0 --workers 2 --stop-after 3 "
      "--checkpoint " + checkpoint);
  EXPECT_EQ(pause_exit, 0);
  const std::optional<FleetCheckpoint> saved = FleetCheckpoint::load(checkpoint);
  ASSERT_TRUE(saved.has_value());
  EXPECT_GE(saved->completed.size(), 3u);
  EXPECT_LT(saved->completed.size(), plan.trial_count());

  const int resume_exit = run_fleet_bin(
      "--fast-world --runs 4 --threads 2 --serve 0 --workers 2 "
      "--checkpoint " + checkpoint + " --jsonl " + jsonl);
  EXPECT_EQ(resume_exit, 0);
  EXPECT_EQ(slurp(jsonl), reference);
  std::remove(checkpoint.c_str());
  std::remove(jsonl.c_str());
}

}  // namespace
}  // namespace acf::fleet::remote
