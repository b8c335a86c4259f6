// Feedback-driven fuzzing tests: novelty-map semantics, corpus scheduling /
// minimisation / codec hardening, sequence-mutator bounds, the persistent
// execution world (a reset world runs as a new one), and the campaign-level
// determinism contracts — byte-identical re-runs, a trajectory pinned across
// builds, and thread-count-invariant fleet outcomes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>

#include "dbc/target_vehicle_db.hpp"
#include "feedback/campaign.hpp"
#include "feedback/worlds.hpp"
#include "fleet/executor.hpp"
#include "metrics/metrics.hpp"
#include "selftest/world_reset.hpp"

namespace acf::feedback {
namespace {

// --------------------------------------------------------- NoveltyMap ----

TEST(FeedbackNovelty, BucketsFollowAflClasses) {
  EXPECT_EQ(count_bucket(0), 0);
  EXPECT_EQ(count_bucket(1), 0);
  EXPECT_EQ(count_bucket(2), 1);
  EXPECT_EQ(count_bucket(3), 2);
  EXPECT_EQ(count_bucket(4), 3);
  EXPECT_EQ(count_bucket(7), 3);
  EXPECT_EQ(count_bucket(8), 4);
  EXPECT_EQ(count_bucket(15), 4);
  EXPECT_EQ(count_bucket(16), 5);
  EXPECT_EQ(count_bucket(31), 5);
  EXPECT_EQ(count_bucket(32), 6);
  EXPECT_EQ(count_bucket(127), 6);
  EXPECT_EQ(count_bucket(128), 7);
  EXPECT_EQ(count_bucket(1'000'000), 7);
  // Same (domain, key) with counts in different buckets -> different cells.
  EXPECT_NE(make_feature(Domain::kEcuState, 3, 1), make_feature(Domain::kEcuState, 3, 2));
  // ... and counts within one bucket collapse to the same feature.
  EXPECT_EQ(make_feature(Domain::kEcuState, 3, 9), make_feature(Domain::kEcuState, 3, 10));
  // Domains separate identical keys.
  EXPECT_NE(make_feature(Domain::kEcuState, 3, 1), make_feature(Domain::kOracle, 3, 1));
}

TEST(FeedbackNovelty, FirstHitIsNovelLaterHitsAreNot) {
  NoveltyMap map(1 << 10);
  const Feature f = make_feature(Domain::kFrameCell, 0x215, 1);
  EXPECT_FALSE(map.seen(f));
  EXPECT_TRUE(map.observe(f));
  EXPECT_TRUE(map.seen(f));
  EXPECT_FALSE(map.observe(f));
  EXPECT_EQ(map.occupied(), 1u);
  map.reset();
  EXPECT_EQ(map.occupied(), 0u);
  EXPECT_TRUE(map.observe(f));
}

// -------------------------------------------------------------- Corpus ----

Seed make_seed(std::vector<Feature> features, bool hot) {
  Seed seed;
  seed.frames = {can::CanFrame::data_std(0x215, {0x20, 0x5F})};
  seed.features = std::move(features);
  seed.hot = hot;
  return seed;
}

TEST(FeedbackCorpus, PickIsEnergyWeightedAndDeterministic) {
  Corpus corpus;
  ASSERT_TRUE(corpus.add(make_seed({1, 2}, /*hot=*/false)));
  ASSERT_TRUE(corpus.add(make_seed({3, 4}, /*hot=*/true)));
  EXPECT_EQ(corpus.energy(0), 1u);
  EXPECT_EQ(corpus.energy(1), 32u);
  util::Rng rng(42);
  std::size_t hot_picks = 0;
  for (int i = 0; i < 330; ++i) hot_picks += corpus.pick(rng);
  // Expected ~320 of 330 draws land on the hot seed.
  EXPECT_GT(hot_picks, 280u);
  // Same rng seed -> the identical draw sequence.
  util::Rng a(7), b(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(corpus.pick(a), corpus.pick(b));
}

TEST(FeedbackCorpus, MinimizeDropsSubsumedSeedsAndKeepsUnion) {
  Corpus corpus;
  ASSERT_TRUE(corpus.add(make_seed({1, 2, 3}, false)));
  ASSERT_TRUE(corpus.add(make_seed({1, 2}, false)));      // subsumed
  ASSERT_TRUE(corpus.add(make_seed({4}, false)));
  ASSERT_TRUE(corpus.add(make_seed({2, 3, 4}, false)));   // subsumed by 0+2
  const std::size_t before = corpus.distinct_features();
  EXPECT_EQ(corpus.minimize(), 2u);
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.distinct_features(), before);
}

// The eager greedy set cover minimize() ran before it went lazy: for every
// seed it keeps, rescan every seed's gain against the uncovered set.  Returns
// the kept indices in corpus order.
std::vector<std::size_t> eager_minimize(const std::vector<std::vector<Feature>>& lists) {
  std::vector<std::size_t> all(lists.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  if (lists.size() < 2) return all;
  std::set<Feature> uncovered;
  for (const auto& list : lists) uncovered.insert(list.begin(), list.end());
  std::vector<bool> kept(lists.size(), false);
  while (!uncovered.empty()) {
    std::size_t best = lists.size();
    std::size_t best_gain = 0;
    for (std::size_t i = 0; i < lists.size(); ++i) {
      if (kept[i]) continue;
      std::size_t gain = 0;
      for (const Feature f : lists[i]) gain += uncovered.count(f);
      if (gain > best_gain) {
        best_gain = gain;
        best = i;
      }
    }
    if (best == lists.size()) break;
    kept[best] = true;
    for (const Feature f : lists[best]) uncovered.erase(f);
  }
  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < lists.size(); ++i) {
    if (kept[i]) survivors.push_back(i);
  }
  return survivors;
}

/// A random corpus built to stress the cover's tie-breaks: few distinct
/// features, so gains tie often, and seeds that repeat, nest inside or
/// extend an earlier seed's list, or carry no features at all.
std::vector<std::vector<Feature>> random_feature_lists(util::Rng& rng) {
  const std::size_t seeds = rng.next_below(3) == 0 ? rng.next_below(4) : rng.next_below(300);
  const std::uint64_t universe = 1 + rng.next_below(rng.next_bool() ? 12 : 80);
  std::vector<std::vector<Feature>> lists;
  for (std::size_t i = 0; i < seeds; ++i) {
    std::vector<Feature> list;
    const std::uint64_t shape = rng.next_below(6);
    if (shape == 0) {
      // no features
    } else if (shape <= 2 && !lists.empty()) {
      list = lists[rng.next_below(lists.size())];  // a duplicate ...
      if (shape == 2 && !list.empty()) {            // ... or a subset of one
        list.erase(list.begin() + static_cast<std::ptrdiff_t>(rng.next_below(list.size())));
      }
    } else {
      if (shape == 3 && !lists.empty()) list = lists[rng.next_below(lists.size())];
      for (std::uint64_t n = 1 + rng.next_below(8); n > 0; --n) {
        // Spread over the hash range, as real features are.
        list.push_back(make_feature(Domain::kFrameCell, rng.next_below(universe), 1));
      }
    }
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    lists.push_back(std::move(list));
  }
  return lists;
}

TEST(FeedbackCorpus, LazyMinimizeMatchesEagerGreedy) {
  util::Rng rng(0xC0FFEE);
  for (int round = 0; round < 400; ++round) {
    const std::vector<std::vector<Feature>> lists = random_feature_lists(rng);
    Corpus corpus;
    for (std::size_t i = 0; i < lists.size(); ++i) {
      Seed seed = make_seed(lists[i], rng.next_bool());
      seed.found_at_exec = i;  // the seed's original index
      ASSERT_TRUE(corpus.add(std::move(seed)));
    }
    const std::size_t union_before = corpus.distinct_features();
    const std::vector<std::size_t> want = eager_minimize(lists);
    const std::size_t dropped = corpus.minimize();

    SCOPED_TRACE(testing::Message() << "round " << round << ", " << lists.size() << " seeds");
    EXPECT_EQ(dropped, lists.size() - want.size());
    ASSERT_EQ(corpus.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(corpus.at(k).found_at_exec, want[k]) << "kept seed " << k;
      EXPECT_EQ(corpus.at(k).features, lists[want[k]]);
    }
    EXPECT_EQ(corpus.distinct_features(), union_before);
  }
}

/// The linear scan pick() ran before the cumulative array: one roll, then
/// subtract energies in corpus order until the roll falls inside one.
std::size_t linear_pick(const Corpus& corpus, util::Rng& rng) {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < corpus.size(); ++i) total += corpus.energy(i);
  std::uint64_t roll = rng.next_below(total);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const std::uint64_t e = corpus.energy(i);
    if (roll < e) return i;
    roll -= e;
  }
  return corpus.size() - 1;
}

TEST(FeedbackCorpus, PickMatchesLinearScan) {
  const auto expect_same_picks = [](const Corpus& corpus, std::uint64_t stream) {
    util::Rng a(stream), b(stream);
    for (int draw = 0; draw < 400; ++draw) {
      ASSERT_EQ(corpus.pick(a), linear_pick(corpus, b)) << "draw " << draw;
    }
  };
  util::Rng rng(0x91C4);
  Corpus corpus;
  Feature next_feature = 1;
  // Growth by add(): every seed covers features of its own, except each
  // fourth, which repeats its predecessor's and so is dropped by minimize().
  for (std::uint64_t batch = 0; batch < 6; ++batch) {
    for (int i = 0; i < 10; ++i) {
      if (i % 4 != 3) next_feature += 2;
      ASSERT_TRUE(corpus.add(make_seed({next_feature, next_feature + 1}, rng.next_below(3) == 0)));
    }
    SCOPED_TRACE(testing::Message() << "after add batch " << batch);
    expect_same_picks(corpus, 100 + batch);
  }
  ASSERT_GT(corpus.minimize(), 0u);
  {
    SCOPED_TRACE("after minimize");
    expect_same_picks(corpus, 200);
  }
  ASSERT_TRUE(corpus.add(make_seed({next_feature}, true)));
  ASSERT_TRUE(corpus.add(make_seed({next_feature + 1}, false)));
  {
    SCOPED_TRACE("after add following minimize");
    expect_same_picks(corpus, 300);
  }
  const auto decoded = Corpus::decode(corpus.encode());
  ASSERT_TRUE(decoded.has_value());
  SCOPED_TRACE("after decode");
  expect_same_picks(*decoded, 400);
}

TEST(FeedbackCorpus, EncodeDecodeIsIdentity) {
  Corpus corpus;
  Seed seed = make_seed({5, 9, 11}, true);
  seed.found_at_exec = 123;
  seed.exec_cost_ns = 456789;
  seed.frames.push_back(can::CanFrame::data_std(0x7FF, {}));
  ASSERT_TRUE(corpus.add(std::move(seed)));
  ASSERT_TRUE(corpus.add(make_seed({1}, false)));
  const auto bytes = corpus.encode();
  const auto decoded = Corpus::decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->size(), 2u);
  EXPECT_EQ(decoded->at(0).found_at_exec, 123u);
  EXPECT_EQ(decoded->at(0).exec_cost_ns, 456789u);
  EXPECT_TRUE(decoded->at(0).hot);
  EXPECT_EQ(decoded->at(0).frames.size(), 2u);
  EXPECT_EQ(decoded->at(0).frames[0].id(), 0x215u);
  EXPECT_EQ(decoded->encode(), bytes);  // decode∘encode identity
}

TEST(FeedbackCorpus, DecodeFailsClosedOnHostileInputs) {
  Corpus corpus;
  ASSERT_TRUE(corpus.add(make_seed({1, 2}, true)));
  auto bytes = corpus.encode();
  // Every truncation is rejected.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(Corpus::decode(std::span(bytes.data(), len)).has_value()) << len;
  }
  // Trailing garbage is rejected (strict full consumption).
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(Corpus::decode(padded).has_value());
  // A hostile seed count far beyond the bytes present is rejected before
  // any allocation.
  auto hostile = bytes;
  hostile[8] = 0xFF;
  hostile[9] = 0xFF;
  hostile[10] = 0xFF;
  hostile[11] = 0x7F;
  EXPECT_FALSE(Corpus::decode(hostile).has_value());
  // Wrong magic.
  auto wrong = bytes;
  wrong[0] ^= 0xFF;
  EXPECT_FALSE(Corpus::decode(wrong).has_value());
}

TEST(FeedbackCorpus, SaveReportsBytesThatNeverReachTheDisk) {
  Corpus corpus;
  ASSERT_TRUE(corpus.add(make_seed({1, 2}, true)));
  const std::string path = ::testing::TempDir() + "/acf_corpus_save_test.bin";
  ASSERT_TRUE(corpus.save(path));
  const auto loaded = Corpus::load(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->encode(), corpus.encode());
  std::remove(path.c_str());
  // /dev/full accepts the open and fails the write with ENOSPC.
  EXPECT_FALSE(corpus.save("/dev/full"));
}

// ----------------------------------------------------- SequenceMutator ----

TEST(FeedbackSequenceMutator, StaysWithinBoundsAndIsDeterministic) {
  const SequenceMutator mutator;
  util::Rng a(99), b(99);
  std::vector<can::CanFrame> seq_a = mutator.fresh(a);
  std::vector<can::CanFrame> seq_b = mutator.fresh(b);
  ASSERT_EQ(seq_a.size(), seq_b.size());
  const std::vector<can::CanFrame> donor = {can::CanFrame::data_std(0x123, {1, 2, 3})};
  bool reached_cap = false;
  for (int round = 0; round < 500; ++round) {
    mutator.mutate(a, seq_a, round % 3 == 0 ? &donor : nullptr);
    mutator.mutate(b, seq_b, round % 3 == 0 ? &donor : nullptr);
    ASSERT_GE(seq_a.size(), 1u);
    ASSERT_LE(seq_a.size(), SequenceMutator::kMaxFrames);
    reached_cap = reached_cap || seq_a.size() == SequenceMutator::kMaxFrames;
    ASSERT_EQ(seq_a.size(), seq_b.size());
    for (std::size_t i = 0; i < seq_a.size(); ++i) {
      ASSERT_EQ(seq_a[i], seq_b[i]) << "diverged at round " << round;
      ASSERT_LE(seq_a[i].id(), can::kMaxStandardId);
      ASSERT_LE(seq_a[i].length(), can::kMaxClassicPayload);
    }
  }
  EXPECT_TRUE(reached_cap) << "no round grew a sequence to the cap";
}

// -------------------------------------------------- FeedbackWorldReset ----

can::CanFrame uds_request(std::vector<std::uint8_t> bytes) {
  bytes.resize(8, 0xCC);
  return *can::CanFrame::data(dbc::kUdsBcmRequest, bytes);
}

/// A random execution input: a SequenceMutator sequence (fresh, or mutated
/// against a donor), into which a UDS dialogue with the BCM, body commands
/// and bus faults are mixed, each in about a third of the scripts.
selftest::WorldScript random_script(util::Rng& rng, const SequenceMutator& mutator) {
  selftest::WorldScript script;
  script.frames = mutator.fresh(rng);
  if (rng.next_bool()) {
    const std::vector<can::CanFrame> donor = mutator.fresh(rng);
    mutator.mutate(rng, script.frames, &donor);
  }
  const auto insert_block = [&](const std::vector<can::CanFrame>& block) {
    const auto at = static_cast<std::ptrdiff_t>(rng.next_below(script.frames.size() + 1));
    script.frames.insert(script.frames.begin() + at, block.begin(), block.end());
  };
  if (rng.next_below(3) == 0) {
    // Extended session first, so seed and key requests get answered.
    std::vector<can::CanFrame> dialogue = {uds_request({0x02, 0x10, 0x03})};
    if (rng.next_bool()) {
      // Wrong keys: the third in a row locks seed requests out for 10 s.
      for (std::uint64_t i = rng.next_in(1, 4); i > 0; --i) {
        dialogue.push_back(uds_request({0x02, 0x27, 0x01}));
        dialogue.push_back(uds_request({0x06, 0x27, 0x02, rng.next_byte(), rng.next_byte(),
                                        rng.next_byte(), rng.next_byte()}));
      }
    }
    for (std::uint64_t i = rng.next_in(1, 4); i > 0; --i) {
      switch (rng.next_below(6)) {
        case 0: dialogue.push_back(uds_request({0x02, 0x27, 0x01})); break;
        // A multi-frame answer: the BCM then waits for the tester's flow
        // control.
        case 1: dialogue.push_back(uds_request({0x03, 0x22, 0xF1, 0x90})); break;
        // The first frame of a 20-byte request: the BCM waits for the rest.
        case 2:
          dialogue.push_back(uds_request({0x10, 0x14, 0x2E, 0xF1, 0x90, 0x01, 0x02, 0x03}));
          break;
        case 3: dialogue.push_back(uds_request({0x30, 0x00, 0x00})); break;
        case 4: dialogue.push_back(uds_request({0x21, 0x04, 0x05, 0x06, 0x07})); break;
        default: dialogue.push_back(uds_request({0x02, 0x11, 0x01})); break;
      }
    }
    insert_block(dialogue);
  }
  if (rng.next_below(3) == 0) {
    const std::uint8_t command = rng.next_bool() ? dbc::kCmdUnlock : dbc::kCmdLock;
    const std::uint8_t tail[7] = {command, 0x5F, 0x01, 0x00, rng.next_byte(), 0x20, 0x00};
    const auto length = static_cast<std::size_t>(rng.next_in(1, 7));
    insert_block({*can::CanFrame::data(dbc::kMsgBodyCommand, std::span(tail, length))});
  }
  if (rng.next_below(3) == 0) {
    // Corrupted transmissions on any of the five nodes (32 take one to
    // bus-off) and error frames on the wire.
    script.forced_errors.emplace_back(static_cast<can::NodeId>(rng.next_below(5)),
                                      static_cast<std::uint32_t>(rng.next_below(48)));
    for (std::uint64_t i = rng.next_below(3); i > 0; --i) {
      script.error_frame_slots.push_back(static_cast<std::uint32_t>(rng.next_below(8)));
    }
  }
  return script;
}

TEST(FeedbackWorldReset, ResetThenRunEqualsANewWorldsRun) {
  util::Rng rng(0x5E7E7);
  const SequenceMutator mutator;
  constexpr int kPairs = 500;
  int failures = 0;
  for (int pair = 0; pair < kPairs && failures < 5; ++pair) {
    selftest::WorldResetCase check{selftest::world_predicate(static_cast<std::uint8_t>(pair)),
                                   random_script(rng, mutator), random_script(rng, mutator)};
    if (const auto difference = selftest::check_world_reset(check)) {
      ++failures;
      ADD_FAILURE() << "pair " << pair << ": " << *difference;
    }
  }
}

// ---------------------------------------------------- FeedbackCampaign ----

FeedbackConfig fast_config(std::uint64_t seed) {
  FeedbackConfig config;
  config.seed = seed;
  config.max_total_sim = std::chrono::seconds(120);
  return config;
}

TEST(FeedbackCampaign, FindsUnlockOnWeakPredicate) {
  FeedbackCampaign campaign(fast_config(0xACF0));
  const fuzzer::CampaignResult& result = campaign.run();
  EXPECT_EQ(result.reason, fuzzer::StopReason::kFailureDetected);
  ASSERT_FALSE(result.findings.empty());
  EXPECT_LT(result.findings.front().observation.time, std::chrono::seconds(120));
  EXPECT_GT(campaign.stats().novel_inputs, 0u);
  EXPECT_GT(campaign.corpus().size(), 0u);
  EXPECT_GT(campaign.map().occupied(), 0u);
}

TEST(FeedbackCampaign, ReRunIsByteIdentical) {
  FeedbackCampaign first(fast_config(0xBEEF));
  FeedbackCampaign second(fast_config(0xBEEF));
  const auto& ra = first.run();
  const auto& rb = second.run();
  EXPECT_EQ(ra.frames_sent, rb.frames_sent);
  EXPECT_EQ(ra.elapsed, rb.elapsed);
  EXPECT_EQ(ra.reason, rb.reason);
  ASSERT_EQ(ra.findings.size(), rb.findings.size());
  for (std::size_t i = 0; i < ra.findings.size(); ++i) {
    EXPECT_EQ(ra.findings[i].observation.detail, rb.findings[i].observation.detail);
    EXPECT_EQ(ra.findings[i].observation.time, rb.findings[i].observation.time);
  }
  EXPECT_EQ(first.corpus().encode(), second.corpus().encode());
  EXPECT_EQ(first.stats().executions, second.stats().executions);
}

std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

struct RecordedFinding {
  std::int64_t time_ns;
  std::string detail;
};

struct RecordedTrajectory {
  std::uint64_t seed;
  bool hardened;
  FeedbackStats stats;
  std::size_t map_occupied;
  std::size_t corpus_size;
  std::uint64_t corpus_fnv1a;
  std::int64_t elapsed_ns;
  fuzzer::StopReason reason;
  std::vector<RecordedFinding> findings;
  sim::Duration budget = std::chrono::milliseconds(500);
};

TEST(FeedbackCampaign, TrajectoryMatchesTheRecordedParent) {
  // ReRunIsByteIdentical compares two runs of one build; this pins the loop
  // across builds.  The values are recorded, not computed, so any change
  // that moves the loop for a fixed seed fails here; a deliberate one
  // re-records them and says why.  The arms are perfbench's `feedback`
  // workload: the weak and the length-checked predicate at a 0.5 s budget.
  // Seeds 8 and 35 unlock only the weak BCM, 229 unlocks both, and 43
  // unlocks neither but diverges between them.  The last case is the
  // longest hardened trial of `fleet_run --feedback --runs 12 --budget-hours
  // 1` (trial 9): its corpus fills to the 4096-seed cap, so minimisation and
  // the energy draw run at full size before the unlock at 210.9 s.  At the
  // cap it refuses 4,176 novel inputs: 8,283 less the 4,107 seeds the corpus
  // took (4,096 kept, 11 dropped).  The 0.5 s cases never reach the cap.
  using fuzzer::StopReason;
  const std::vector<RecordedTrajectory> recorded = {
      {8, false, {94, 28, 48, 0, 170}, 46, 28, 0x93c8264c725d0cf3ULL, 452000000,
       StopReason::kFailureDetected,
       {{448300000, "unlock security function activated without authorisation via "
                    "215#4CDC3C00 215#20DC8100 7DD#4CDC81"}}},
      {8, true, {106, 32, 54, 0, 186}, 45, 32, 0x6c8886cbf94d0104ULL, 504000000,
       StopReason::kDurationElapsed, {}},
      {35, false, {17, 8, 8, 0, 26}, 15, 8, 0x53596e66b17b0657ULL, 77000000,
       StopReason::kFailureDetected,
       {{73268000, "unlock security function activated without authorisation via "
                   "215#20D8 76E#83895A"}}},
      {35, true, {108, 38, 63, 2, 181}, 51, 36, 0x6b9cb812d5c69046ULL, 505000000,
       StopReason::kDurationElapsed, {}},
      {43, false, {98, 28, 62, 0, 209}, 44, 28, 0xb520492d48a7076aULL, 503000000,
       StopReason::kDurationElapsed, {}},
      {43, true, {101, 29, 61, 0, 218}, 48, 29, 0x9e06bb44215a8592ULL, 521000000,
       StopReason::kDurationElapsed, {}},
      {229, false, {76, 24, 42, 0, 129}, 39, 24, 0x302591d22275ab95ULL, 357000000,
       StopReason::kFailureDetected,
       {{354350000, "unlock security function activated without authorisation via "
                    "215#2436139FF5F667 215#2036139FF8F667"}}},
      {229, true, {76, 24, 42, 0, 129}, 39, 24, 0x302591d22275ab95ULL, 357000000,
       StopReason::kFailureDetected,
       {{354350000, "unlock security function activated without authorisation via "
                    "215#2436139FF5F667 215#2036139FF8F667"}}},
      {16242630735861178957ULL, true, {41825, 8283, 17198, 11, 85384, 4176}, 10258, 4096,
       0x02714033a764d7f1ULL, 210859000000, StopReason::kFailureDetected,
       {{210856350000, "unlock security function activated without authorisation via "
                       "216#10B37F4507A880 215#10B37FD507A880 215#20B37FD507A888 "
                       "215#20B37FD507A888"}},
       std::chrono::hours(1)},
  };
  for (const RecordedTrajectory& want : recorded) {
    SCOPED_TRACE(testing::Message() << "seed " << want.seed
                                    << (want.hardened ? " hardened" : " weak"));
    FeedbackConfig config;
    config.seed = want.seed;
    config.max_total_sim = want.budget;
    if (want.hardened) config.predicate = vehicle::UnlockPredicate::id_byte_and_length();
    FeedbackCampaign campaign(config);
    const fuzzer::CampaignResult& result = campaign.run();

    const FeedbackStats& stats = campaign.stats();
    EXPECT_EQ(stats.executions, want.stats.executions);
    EXPECT_EQ(stats.novel_inputs, want.stats.novel_inputs);
    EXPECT_EQ(stats.trim_executions, want.stats.trim_executions);
    EXPECT_EQ(stats.seeds_dropped, want.stats.seeds_dropped);
    EXPECT_EQ(stats.frames_sent, want.stats.frames_sent);
    EXPECT_EQ(stats.seeds_refused, want.stats.seeds_refused);
    EXPECT_EQ(campaign.map().occupied(), want.map_occupied);
    EXPECT_EQ(campaign.corpus().size(), want.corpus_size);
    EXPECT_EQ(fnv1a64(campaign.corpus().encode()), want.corpus_fnv1a);
    EXPECT_EQ(result.elapsed.count(), want.elapsed_ns);
    EXPECT_EQ(result.reason, want.reason);
    ASSERT_EQ(result.findings.size(), want.findings.size());
    for (std::size_t i = 0; i < want.findings.size(); ++i) {
      EXPECT_EQ(result.findings[i].observation.time.count(), want.findings[i].time_ns);
      EXPECT_EQ(result.findings[i].observation.detail, want.findings[i].detail);
    }
  }
}

// ------------------------------------------------------------- fleet ------

std::vector<fleet::TrialOutcome> run_fleet(unsigned threads, const std::string& corpus_dir) {
  FeedbackArm arm;
  arm.config.predicate = vehicle::UnlockPredicate{4, true, false};
  fleet::TrialPlan plan({"feedback"}, 4, 0xF1EE7, std::chrono::milliseconds(250));
  fleet::Executor executor({.threads = threads});
  return executor.run(plan, feedback_world_factory({arm}, nullptr, corpus_dir));
}

TEST(FleetFeedback, OutcomesIdenticalAcrossThreadCounts) {
  const auto one = run_fleet(1, "");
  const auto four = run_fleet(4, "");
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].spec.seed, four[i].spec.seed);
    EXPECT_EQ(one[i].status, four[i].status);
    EXPECT_EQ(one[i].frames_sent, four[i].frames_sent);
    EXPECT_EQ(one[i].sim_seconds, four[i].sim_seconds);
    EXPECT_EQ(one[i].time_to_failure, four[i].time_to_failure);
    EXPECT_EQ(one[i].findings, four[i].findings);
  }
}

TEST(FleetFeedback, CorpusDirPersistsByteIdenticalCorpora) {
  const std::string dir = testing::TempDir() + "acf_feedback_corpus";
  const auto first = run_fleet(2, dir);
  ASSERT_EQ(first.size(), 4u);
  auto trial0 = Corpus::load(dir + "/trial-0.corpus");
  ASSERT_TRUE(trial0.has_value());
  const auto bytes_before = trial0->encode();
  // Re-running the identical plan rewrites the identical bytes.
  const auto second = run_fleet(2, dir);
  auto again = Corpus::load(dir + "/trial-0.corpus");
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->encode(), bytes_before);
  for (std::size_t i = 0; i < 4; ++i) {
    std::remove((dir + "/trial-" + std::to_string(i) + ".corpus").c_str());
  }
}

TEST(FleetFeedback, UnwritableCorpusDirFailsEveryTrial) {
  // A directory below a regular file can be neither created nor written: the
  // corpora are lost, so every trial must say so rather than report success.
  const std::string file = testing::TempDir() + "acf_feedback_corpus_file";
  { std::ofstream(file) << "not a directory"; }
  const std::string dir = file + "/sub";
  const auto outcomes = run_fleet(2, dir);
  ASSERT_EQ(outcomes.size(), 4u);
  for (const fleet::TrialOutcome& outcome : outcomes) {
    EXPECT_EQ(outcome.status, fleet::TrialStatus::kFailed);
    EXPECT_NE(outcome.error.find(dir + "/trial-" + std::to_string(outcome.spec.trial_index) +
                                 ".corpus"),
              std::string::npos)
        << outcome.error;
  }
  std::remove(file.c_str());
}

}  // namespace
}  // namespace acf::feedback
