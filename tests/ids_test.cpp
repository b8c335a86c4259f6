// Intrusion-detection subsystem tests: detector models, pipeline alert
// merging, the alert->finding oracle bridge, ground-truth evaluation, clean
// candump replay (zero false positives) and fleet-scale determinism.  All
// suites are named Ids* so the TSan CI leg can select them together with the
// fleet suites via `ctest -R '^(Fleet|Ids)'`.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dbc/target_vehicle_db.hpp"
#include "fleet/executor.hpp"
#include "fuzzer/generator.hpp"
#include "ids/alert_oracle.hpp"
#include "ids/detectors.hpp"
#include "ids/evaluation.hpp"
#include "ids/id_table.hpp"
#include "ids/ids_world.hpp"
#include "ids/pipeline.hpp"
#include "metrics/metrics.hpp"
#include "sim/scheduler.hpp"
#include "trace/candump_log.hpp"
#include "trace/capture.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "vehicle/vehicle.hpp"

namespace acf::ids {
namespace {

using can::CanFrame;
using sim::SimTime;
using namespace std::chrono_literals;

/// Minimal database: one 4-byte message carrying one ranged signal.
dbc::Database tiny_db() {
  dbc::Database db;
  dbc::MessageDef m;
  m.id = 0x100;
  m.name = "TINY";
  m.dlc = 4;
  dbc::SignalDef s;
  s.name = "Value";
  s.start_bit = 0;
  s.bit_length = 8;
  s.min = 0.0;
  s.max = 100.0;
  m.signals.push_back(s);
  db.add(std::move(m));
  return db;
}

// ----------------------------------------------------------- detectors -----

TEST(IdsAllowlist, DbSeededThenExtendedByTraining) {
  AllowlistDetector detector(tiny_db());
  EXPECT_EQ(detector.known_ids(), 1u);
  // Declared id at the declared DLC is clean.
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x100, {1, 2, 3, 4}), 0ns), 0.0);
  // Declared id at an unseen DLC is suspicious, unknown id is maximal.
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x100, {1, 2}), 0ns), 0.75);
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x200, {0}), 0ns), 1.0);
  // Training extends the allowlist with observed traffic.
  detector.train(CanFrame::data_std(0x200, {0}), 0ns);
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x200, {0}), 0ns), 0.0);
}

TEST(IdsDlcConsistency, FlagsOnlyDeclaredIdMismatches) {
  DlcConsistencyDetector detector(tiny_db());
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x100, {1, 2, 3, 4}), 0ns), 0.0);
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x100, {1, 2, 3}), 0ns), 1.0);
  EXPECT_DOUBLE_EQ(detector.score(*CanFrame::remote(0x100, 4), 0ns), 1.0);
  // Undeclared ids are the allowlist's job, not this detector's.
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x7AB, {1}), 0ns), 0.0);
}

// The detector and the hardened BCM predicate must share one DLC check
// (MessageDef::dlc_matches): a short command the BCM rejects is exactly a
// frame the detector flags.
TEST(IdsDlcConsistency, AgreesWithHardenedBcmPredicate) {
  sim::Scheduler scheduler;
  vehicle::UnlockTestbench bench(scheduler, vehicle::UnlockPredicate::id_byte_and_length());
  DlcConsistencyDetector detector(dbc::target_vehicle_database());
  transport::VirtualBusTransport attacker(bench.bus(), "attacker");

  // DLC 1 unlock command: detector flags it AND the hardened BCM rejects it.
  const CanFrame short_cmd = CanFrame::data_std(dbc::kMsgBodyCommand, {dbc::kCmdUnlock});
  EXPECT_DOUBLE_EQ(detector.score(short_cmd, 0ns), 1.0);
  attacker.send(short_cmd);
  scheduler.run_for(10ms);
  EXPECT_EQ(bench.bcm().unlock_events(), 0u);

  // The legitimate DLC-7 command passes both.
  const CanFrame good_cmd = CanFrame::data_std(
      dbc::kMsgBodyCommand, {dbc::kCmdUnlock, 0x5F, 0x01, 0x00, 0x01, 0x20, 0x00});
  EXPECT_DOUBLE_EQ(detector.score(good_cmd, 0ns), 0.0);
  attacker.send(good_cmd);
  scheduler.run_for(10ms);
  EXPECT_EQ(bench.bcm().unlock_events(), 1u);
}

TEST(IdsTiming, LearnsPeriodAndFlagsMidCycleInjection) {
  TimingDetector detector;
  const CanFrame frame = CanFrame::data_std(0x21A, {0, 0, 0, 0});
  for (int i = 0; i < 50; ++i) {
    detector.train(frame, SimTime(i * 100ms));
  }
  detector.finalize_training();
  ASSERT_EQ(detector.modeled_ids(), 1u);
  const double lo = detector.lower_bound_s(0x21A);
  EXPECT_GT(lo, 0.0);
  EXPECT_LT(lo, 0.1);
  // The first detection frame only seeds the arrival clock.
  EXPECT_DOUBLE_EQ(detector.score(frame, 5000ms), 0.0);
  // On-schedule frames stay clean; a frame 1 ms later is flagrant.
  EXPECT_DOUBLE_EQ(detector.score(frame, 5100ms), 0.0);
  EXPECT_GT(detector.score(frame, 5101ms), 0.9);
  // Unmodeled ids (too few training frames) never score.
  EXPECT_DOUBLE_EQ(detector.lower_bound_s(0x599), -1.0);
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x599, {1}), 5102ms), 0.0);
}

TEST(IdsRange, ScoresOutOfRangeSignalFraction) {
  RangeDetector detector(tiny_db());
  // Value 50 is inside [0,100]; raw 0xFF decodes to 255, outside.
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x100, {50, 0, 0, 0}), 0ns), 0.0);
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x100, {0xFF, 0, 0, 0}), 0ns), 1.0);
  // Undeclared id and too-short frames (signal absent) score 0.
  EXPECT_DOUBLE_EQ(detector.score(CanFrame::data_std(0x300, {0xFF}), 0ns), 0.0);
}

TEST(IdsRange, FlagsNegativeRpmFromFuzzedBits) {
  // Paper Fig. 8: random bits in ENGINE_DATA decode as negative RPM.
  RangeDetector detector(dbc::target_vehicle_database());
  const CanFrame fuzzed = CanFrame::data_std(
      dbc::kMsgEngineData, {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF});
  EXPECT_GT(detector.score(fuzzed, 0ns), 0.5);
}

TEST(IdsEntropy, SeparatesConstantTrafficFromRandomPayloads) {
  EntropyDetector detector;
  const CanFrame constant = CanFrame::data_std(0x300, {0x10, 0x20, 0x30, 0x40});
  for (int i = 0; i < 64; ++i) detector.train(constant, SimTime(i * 1ms));
  detector.finalize_training();
  EXPECT_LT(detector.window_entropy(0x300), 0.4);

  // Clean traffic keeps scoring at its baseline.
  EXPECT_LT(detector.score(constant, 100ms), 0.1);

  // Random payloads on the same id drive the window toward uniform.
  fuzzer::FuzzConfig fuzz = fuzzer::FuzzConfig::targeted({0x300});
  fuzzer::RandomGenerator generator(fuzz);
  double last = 0.0;
  for (int i = 0; i < 64; ++i) {
    last = detector.score(*generator.next(), SimTime(200ms + i * 1ms));
  }
  EXPECT_GT(last, 0.6);
}

/// Random classic, FD and remote frames on three ids (one of them 29-bit),
/// enough to wrap each 16-frame window many times; small alphabets pile
/// counts up to the 128-byte window's maximum.
std::vector<CanFrame> mixed_entropy_stream() {
  util::Rng rng(0xE7A0);
  const std::uint32_t ids[] = {0x100, can::kMaxStandardId, 0x18DAF110};
  std::vector<CanFrame> frames;
  for (int i = 0; i < 4000; ++i) {
    const std::uint32_t id = ids[rng.next_below(3)];
    const auto format = id > can::kMaxStandardId || rng.next_below(2) == 0
                            ? can::IdFormat::kExtended
                            : can::IdFormat::kStandard;
    constexpr std::array<std::uint64_t, 5> kAlphabets{1, 2, 4, 16, 256};
    const std::uint64_t alphabet = kAlphabets[rng.next_below(kAlphabets.size())];
    std::array<std::uint8_t, can::kMaxFdPayload> bytes{};
    for (std::uint8_t& byte : bytes) byte = static_cast<std::uint8_t>(rng.next_below(alphabet));
    std::optional<CanFrame> frame;
    switch (rng.next_below(3)) {
      case 0:
        frame = CanFrame::data(id, std::span(bytes.data(), rng.next_below(9)), format);
        break;
      case 1: {
        const auto dlc = static_cast<std::uint8_t>(rng.next_below(16));
        frame = CanFrame::fd_data(id, std::span(bytes.data(), can::fd_dlc_to_length(dlc)),
                                  rng.next_below(2) == 0, format);
        break;
      }
      default:
        frame = CanFrame::remote(id, static_cast<std::uint8_t>(rng.next_below(9)), format);
        break;
    }
    EXPECT_TRUE(frame.has_value());
    frames.push_back(frame.value_or(CanFrame{}));
  }
  return frames;
}

TEST(IdsEntropy, IncrementalMatchesRecompute) {
  // window_entropy (incremental counts, table logs) must match a
  // from-scratch Shannon entropy of what the window holds: the first 8
  // payload bytes of the id's last 16 frames, normalized by
  // min(8, log2(bytes)).
  EntropyDetector detector;
  std::map<std::uint32_t, std::deque<std::vector<std::uint8_t>>> model;
  auto recompute = [&model](std::uint32_t id) {
    std::array<std::size_t, 256> counts{};
    std::size_t n = 0;
    for (const std::vector<std::uint8_t>& bytes : model[id]) {
      for (const std::uint8_t byte : bytes) ++counts[byte];
      n += bytes.size();
    }
    if (n <= 1) return 0.0;
    double entropy = 0.0;
    for (const std::size_t c : counts) {
      if (c == 0) continue;
      const double p = static_cast<double>(c) / static_cast<double>(n);
      entropy -= p * std::log2(p);
    }
    const double max_entropy = std::min(8.0, std::log2(static_cast<double>(n)));
    return std::clamp(entropy / max_entropy, 0.0, 1.0);
  };

  const std::vector<CanFrame> frames = mixed_entropy_stream();
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const CanFrame& frame = frames[i];
    // Training and scoring push into the same windows.
    const SimTime time(static_cast<std::int64_t>(i) * 1ms);
    if (i < 2000) {
      detector.train(frame, time);
    } else {
      if (i == 2000) detector.finalize_training();
      detector.score(frame, time);
    }

    const auto payload = frame.payload();
    std::deque<std::vector<std::uint8_t>>& window = model[frame.id()];
    window.emplace_back(payload.begin(),
                        payload.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(payload.size(), can::kMaxClassicPayload)));
    if (window.size() > 16) window.pop_front();
    ASSERT_NEAR(detector.window_entropy(frame.id()), recompute(frame.id()), 1e-12)
        << "frame " << i;
  }
}

/// The entropy detector as it was before windows were built lazily: every
/// id gets its full 16-frame window at its first frame, and each update
/// evaluates c*log2(c) and log2(n) by the expressions the detector's tables
/// hold.  The reference for the detector's bit-identity.
class EagerEntropy {
 public:
  void train(const CanFrame& frame) { push(windows_[frame.id()], frame); }

  void finalize_training() {
    baselines_.clear();
    for (const auto& [id, window] : windows_) {
      if (window.frames >= 8) baselines_[id] = normalized_entropy(window);
    }
  }

  double score(const CanFrame& frame) {
    Window& window = windows_[frame.id()];
    push(window, frame);
    if (window.frames < 8) return 0.0;
    const double h = normalized_entropy(window);
    const auto base = baselines_.find(frame.id());
    if (base == baselines_.end() || base->second >= 1.0) return h;
    return std::clamp((h - base->second) / (1.0 - base->second), 0.0, 1.0);
  }

  void reset() { windows_.clear(); }

  double window_entropy(std::uint32_t id) const {
    const auto window = windows_.find(id);
    return window == windows_.end() ? 0.0 : normalized_entropy(window->second);
  }

 private:
  struct Window {
    struct Slot {
      std::array<std::uint8_t, can::kMaxClassicPayload> bytes{};
      std::uint8_t length = 0;
    };
    std::array<Slot, 16> ring{};
    std::array<std::uint8_t, 256> counts{};
    std::uint8_t head = 0;
    std::uint8_t frames = 0;
    std::uint8_t bytes_total = 0;
    double sum_c_log_c = 0.0;
  };
  static_assert(sizeof(Window) == 416);

  static double c_log_c(std::uint32_t c) { return static_cast<double>(c) * std::log2(c); }

  static void push(Window& window, const CanFrame& frame) {
    auto count_delta = [&window](std::uint8_t value, int delta) {
      std::uint8_t& c = window.counts[value];
      if (c > 0) window.sum_c_log_c -= c_log_c(c);
      c = static_cast<std::uint8_t>(c + delta);
      if (c > 0) window.sum_c_log_c += c_log_c(c);
    };
    if (window.frames == 16) {
      const Window::Slot& old = window.ring[window.head];
      for (std::size_t i = 0; i < old.length; ++i) count_delta(old.bytes[i], -1);
      window.bytes_total = static_cast<std::uint8_t>(window.bytes_total - old.length);
      --window.frames;
    }
    Window::Slot& slot = window.ring[window.head];
    const auto payload = frame.payload();
    slot.length = static_cast<std::uint8_t>(std::min(payload.size(), slot.bytes.size()));
    for (std::size_t i = 0; i < slot.length; ++i) {
      slot.bytes[i] = payload[i];
      count_delta(payload[i], +1);
    }
    window.bytes_total = static_cast<std::uint8_t>(window.bytes_total + slot.length);
    ++window.frames;
    window.head = static_cast<std::uint8_t>((window.head + 1) % 16);
  }

  static double normalized_entropy(const Window& window) {
    const double n = static_cast<double>(window.bytes_total);
    if (n <= 1.0) return 0.0;
    const double log2_n = std::log2(n);
    const double entropy = log2_n - window.sum_c_log_c / n;
    const double max_entropy = std::min(8.0, log2_n);
    if (max_entropy <= 0.0) return 0.0;
    return std::clamp(entropy / max_entropy, 0.0, 1.0);
  }

  std::map<std::uint32_t, Window> windows_;
  std::map<std::uint32_t, double> baselines_;
};

TEST(IdsEntropy, ScoresMatchTheEagerWindowBitForBit) {
  // Two streams: the mixed one above, and full-range fuzz (2,048 ids, ~2.4
  // frames each), where most ids never reach the 8 frames a window needs.
  std::vector<CanFrame> fuzz;
  fuzzer::RandomGenerator generator(fuzzer::FuzzConfig::full_random(0xB17));
  for (int i = 0; i < 4915; ++i) fuzz.push_back(*generator.next());

  auto bits = [](double value) { return std::bit_cast<std::uint64_t>(value); };
  for (const std::vector<CanFrame>& frames : {mixed_entropy_stream(), fuzz}) {
    EntropyDetector detector;
    EagerEntropy eager;
    std::size_t nonzero = 0;
    auto check_entropy = [&](const CanFrame& frame, const char* phase, std::size_t i) {
      ASSERT_EQ(bits(detector.window_entropy(frame.id())), bits(eager.window_entropy(frame.id())))
          << phase << " frame " << i;
    };
    auto score_all = [&](const char* phase) {
      for (std::size_t i = 0; i < frames.size(); ++i) {
        const double score = detector.score(frames[i], SimTime(0ms));
        ASSERT_EQ(bits(score), bits(eager.score(frames[i]))) << phase << " frame " << i;
        if (score > 0.0) ++nonzero;
        check_entropy(frames[i], phase, i);
      }
    };
    for (std::size_t i = 0; i < frames.size(); ++i) {
      detector.train(frames[i], SimTime(0ms));
      eager.train(frames[i]);
      check_entropy(frames[i], "train", i);
    }
    detector.finalize_training();
    eager.finalize_training();
    score_all("score");
    detector.reset();
    eager.reset();
    score_all("score after reset");
    EXPECT_GT(nonzero, 50u);  // windows were built and scored
  }
}

TEST(IdsIdTable, MatchesUnorderedMapModel) {
  // Random try_emplace / operator[] / find / for_each / clear over 11-bit
  // ids, the 0x7FF/0x800 boundary and 29-bit ids, against a
  // std::unordered_map.  A value's address must not change while its id
  // stays in the table, however many ids are inserted after it.
  util::Rng rng(0x1D7AB1E);
  IdTable<std::uint64_t> table;
  std::unordered_map<std::uint32_t, std::uint64_t> model;
  std::unordered_map<std::uint32_t, const std::uint64_t*> addresses;
  auto random_id = [&rng]() -> std::uint32_t {
    switch (rng.next_below(8)) {
      case 0:
        return can::kMaxStandardId + static_cast<std::uint32_t>(rng.next_below(2));
      case 1:
      case 2:
        return static_cast<std::uint32_t>(rng.next_in(0, can::kMaxExtendedId));
      default:
        return static_cast<std::uint32_t>(rng.next_below(can::kMaxStandardId + 1));
    }
  };
  auto expect_same_contents = [&] {
    std::unordered_map<std::uint32_t, std::uint64_t> seen;
    table.for_each([&seen](std::uint32_t id, const std::uint64_t& value) {
      EXPECT_TRUE(seen.emplace(id, value).second) << "id visited twice: " << id;
    });
    EXPECT_EQ(seen, model);
    for (const auto& [id, address] : addresses) {
      EXPECT_EQ(std::as_const(table).find(id), address) << "id " << id << " moved";
    }
  };

  EXPECT_EQ(table.find(0x123), nullptr);
  EXPECT_EQ(table.find(0x18DAF110), nullptr);
  for (int step = 0; step < 30000; ++step) {
    const std::uint32_t id = random_id();
    const std::uint64_t op = rng.next_below(1000);
    if (op < 450) {
      const std::uint64_t value = rng.next_u64();
      const auto [stored, inserted] = table.try_emplace(id, value);
      const auto [expected, model_inserted] = model.try_emplace(id, value);
      ASSERT_EQ(inserted, model_inserted);
      ASSERT_EQ(*stored, expected->second);
      if (inserted) addresses.emplace(id, stored);
      ASSERT_EQ(addresses.at(id), stored);
    } else if (op < 600) {
      std::uint64_t& stored = table[id];
      stored += 3;
      model[id] += 3;
      addresses.emplace(id, &stored);
      ASSERT_EQ(addresses.at(id), &stored);
    } else if (op < 999) {
      const std::uint64_t* found = table.find(id);
      const auto expected = model.find(id);
      ASSERT_EQ(found != nullptr, expected != model.end());
      if (found != nullptr) {
        ASSERT_EQ(*found, expected->second);
      }
    } else {
      expect_same_contents();
      table.clear();
      model.clear();
      addresses.clear();
    }
    ASSERT_EQ(table.size(), model.size());
    if (step % 997 == 0) expect_same_contents();
  }
  expect_same_contents();
}

TEST(IdsDetectors, StandardSetCarriesFourDetectors) {
  const auto detectors = standard_detectors(dbc::target_vehicle_database());
  ASSERT_EQ(detectors.size(), 4u);
  EXPECT_EQ(detectors[0]->name(), "allowlist");
  EXPECT_EQ(detectors[1]->name(), "timing");
  EXPECT_EQ(detectors[2]->name(), "range");
  EXPECT_EQ(detectors[3]->name(), "entropy");
}

// ------------------------------------------------------------- pipeline -----

TEST(IdsPipeline, CooldownMergesRepeatAlerts) {
  Pipeline pipeline;
  const std::size_t idx = pipeline.add(std::make_unique<DlcConsistencyDetector>(tiny_db()));
  pipeline.begin_training();
  pipeline.observe(CanFrame::data_std(0x100, {1, 2, 3, 4}), 0ns);
  pipeline.begin_detection();

  const CanFrame bad = CanFrame::data_std(0x100, {1});
  pipeline.observe(bad, 1000ms);   // alert
  pipeline.observe(bad, 1100ms);   // inside the 1 s cooldown: suppressed
  pipeline.observe(bad, 2500ms);   // past the cooldown: second alert
  const PipelineCounters counters = pipeline.counters();
  EXPECT_EQ(counters.frames_trained, 1u);
  EXPECT_EQ(counters.frames_scored, 3u);
  EXPECT_EQ(counters.alerts_raised, 2u);
  EXPECT_EQ(counters.alerts_suppressed, 1u);
  EXPECT_EQ(pipeline.alerts_for(idx), 2u);

  const std::vector<Alert> alerts = pipeline.drain_alerts();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].detector_name, "dlc-consistency");
  EXPECT_EQ(alerts[0].can_id, 0x100u);
  EXPECT_DOUBLE_EQ(alerts[0].score, 1.0);
  EXPECT_EQ(alerts[0].time, SimTime(1000ms));
  EXPECT_NE(alerts[0].to_string().find("dlc-consistency id=0x100"), std::string::npos);
  EXPECT_TRUE(pipeline.drain_alerts().empty());
}

TEST(IdsPipeline, RegistryPublishesEachTallyOnce) {
  Pipeline pipeline;
  const std::size_t allowlist = pipeline.add(std::make_unique<AllowlistDetector>(tiny_db()));
  const std::size_t dlc = pipeline.add(std::make_unique<DlcConsistencyDetector>(tiny_db()));
  auto check = [&pipeline, allowlist, dlc](const char* when) {
    const PipelineCounters counters = pipeline.counters();
    const std::vector<std::pair<std::string, std::uint64_t>> expected = {
        {"ids.alerts.allowlist", pipeline.alerts_for(allowlist)},
        {"ids.alerts.dlc-consistency", pipeline.alerts_for(dlc)},
        {"ids.pipeline.alerts_dropped", counters.alerts_dropped},
        {"ids.pipeline.alerts_raised", counters.alerts_raised},
        {"ids.pipeline.alerts_suppressed", counters.alerts_suppressed},
        {"ids.pipeline.frames_scored", counters.frames_scored},
        {"ids.pipeline.frames_trained", counters.frames_trained}};
    // Reading the registry twice publishes nothing twice.
    for (int read = 0; read < 2; ++read) {
      std::vector<std::pair<std::string, std::uint64_t>> published;
      for (const metrics::CounterSnap& counter : pipeline.registry().snapshot().counters) {
        published.emplace_back(counter.name, counter.value);
      }
      EXPECT_EQ(published, expected) << when << ", read " << read;
    }
  };
  check("before any frame");
  pipeline.begin_training();
  pipeline.observe(CanFrame::data_std(0x100, {1, 2, 3, 4}), 0ns);
  check("after training");
  pipeline.begin_detection();
  const CanFrame unknown = CanFrame::data_std(0x321, {1});
  const CanFrame wrong_dlc = CanFrame::data_std(0x100, {1});
  for (int i = 0; i < 3; ++i) {
    pipeline.observe(unknown, SimTime(i * 400ms));
    pipeline.observe(wrong_dlc, SimTime(i * 400ms + 1ms));
    pipeline.observe(CanFrame::data_std(0x100, {1, 2, 3, 4}), SimTime(i * 400ms + 2ms));
    check("while scoring");
  }
  // The unknown id and the unseen DLC each alert once for the allowlist,
  // the wrong DLC once for dlc-consistency; their repeats at 0.4 s and
  // 0.8 s fall inside the 1 s cooldown.
  EXPECT_EQ(pipeline.counters().frames_scored, 9u);
  EXPECT_EQ(pipeline.alerts_for(allowlist), 2u);
  EXPECT_EQ(pipeline.alerts_for(dlc), 1u);
  EXPECT_EQ(pipeline.counters().alerts_suppressed, 6u);
}

TEST(IdsPipeline, BoundedAlertQueueCountsDrops) {
  Pipeline pipeline;
  pipeline.add(std::make_unique<AllowlistDetector>(tiny_db()));
  pipeline.begin_detection();
  // Distinct unknown 29-bit ids, more of them than the queue holds: no
  // cooldown merging, and the queue stops at its bound.
  constexpr std::uint64_t kOverfill = 5;
  constexpr std::uint64_t kAlerts = Pipeline::kMaxPendingAlerts + kOverfill;
  for (std::uint32_t id = 0x800; id < 0x800 + kAlerts; ++id) {
    pipeline.observe(*CanFrame::data(id, {0}, can::IdFormat::kExtended), 0ns);
  }
  EXPECT_EQ(pipeline.counters().alerts_raised, kAlerts);
  EXPECT_EQ(pipeline.counters().alerts_dropped, kOverfill);
  EXPECT_EQ(pipeline.drain_alerts().size(), Pipeline::kMaxPendingAlerts);
}

TEST(IdsPipeline, ScoreHookSeesEveryDetectorInOrder) {
  Pipeline pipeline;
  pipeline.add(std::make_unique<AllowlistDetector>(tiny_db()));
  pipeline.add(std::make_unique<DlcConsistencyDetector>(tiny_db()));
  std::vector<std::vector<double>> rows;
  pipeline.set_score_hook(
      [&rows](const CanFrame&, SimTime, std::span<const double> scores) {
        rows.emplace_back(scores.begin(), scores.end());
      });
  pipeline.begin_detection();
  pipeline.observe(CanFrame::data_std(0x100, {1, 2}), 0ns);  // known id, wrong dlc
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 2u);
  EXPECT_DOUBLE_EQ(rows[0][0], 0.75);  // allowlist: unseen DLC
  EXPECT_DOUBLE_EQ(rows[0][1], 1.0);   // dlc-consistency: mismatch
}

TEST(IdsPipeline, BusTapObservesEcuTrafficInvisibly) {
  sim::Scheduler scheduler;
  vehicle::UnlockTestbench bench(scheduler);
  Pipeline pipeline;
  pipeline.add(std::make_unique<AllowlistDetector>(dbc::target_vehicle_database()));
  pipeline.attach(bench.bus(), "ids-tap");
  pipeline.begin_training();
  scheduler.run_for(1s);
  // The BCM's two 100 ms periodics alone give ~20 frames.
  EXPECT_GE(pipeline.counters().frames_trained, 18u);
  pipeline.begin_detection();
  scheduler.run_for(1s);
  EXPECT_GE(pipeline.counters().frames_scored, 18u);
  EXPECT_EQ(pipeline.counters().alerts_raised, 0u);  // clean bench traffic
  pipeline.detach();
}

TEST(IdsPipeline, DetectionIsAPureFunctionOfTheStream) {
  auto run = [](std::vector<std::string>& out) {
    Pipeline pipeline;
    pipeline.add(std::make_unique<AllowlistDetector>(tiny_db()));
    pipeline.add(std::make_unique<TimingDetector>());
    pipeline.begin_training();
    for (int i = 0; i < 20; ++i) {
      pipeline.observe(CanFrame::data_std(0x100, {1, 2, 3, 4}), SimTime(i * 100ms));
    }
    pipeline.begin_detection();
    for (int i = 0; i < 20; ++i) {
      pipeline.observe(CanFrame::data_std(0x100, {1, 2, 3, 4}), SimTime(2s + i * 100ms));
      pipeline.observe(CanFrame::data_std(0x5A5, {9}), SimTime(2s + i * 100ms + 1ms));
    }
    for (const Alert& alert : pipeline.drain_alerts()) out.push_back(alert.to_string());
  };
  std::vector<std::string> first, second;
  run(first);
  run(second);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

// --------------------------------------------------------- alert oracle -----

TEST(IdsAlertOracle, BridgesAlertBatchesToObservations) {
  Pipeline pipeline;
  pipeline.add(std::make_unique<AllowlistDetector>(tiny_db()));
  AlertOracle oracle(pipeline);
  pipeline.begin_detection();
  EXPECT_FALSE(oracle.poll(0ns).has_value());

  pipeline.observe(CanFrame::data_std(0x400, {0}), 500ms);
  pipeline.observe(CanFrame::data_std(0x401, {0}), 600ms);
  const auto observation = oracle.poll(1000ms);
  ASSERT_TRUE(observation.has_value());
  EXPECT_EQ(observation->verdict, oracle::Verdict::kSuspicious);
  EXPECT_EQ(observation->time, SimTime(500ms));  // first alert of the batch
  EXPECT_NE(observation->detail.find("ids: 2 alert(s)"), std::string::npos);
  EXPECT_EQ(oracle.alerts_reported(), 2u);
  // Drained: the next poll is quiet.
  EXPECT_FALSE(oracle.poll(2000ms).has_value());
}

// ----------------------------------------------------------- evaluation -----

TEST(IdsEvaluation, FrameLabelerMatchesFifoByContent) {
  FrameLabeler labeler;
  const CanFrame frame = CanFrame::data_std(0x123, {0xAB, 0xCD});
  labeler.note_injected(frame);
  labeler.note_injected(frame);
  EXPECT_EQ(labeler.injected(), 2u);
  EXPECT_TRUE(labeler.consume_if_attack(frame));
  EXPECT_TRUE(labeler.consume_if_attack(frame));
  EXPECT_FALSE(labeler.consume_if_attack(frame));  // both notes consumed
  EXPECT_FALSE(labeler.consume_if_attack(CanFrame::data_std(0x123, {0xAB})));
  EXPECT_EQ(labeler.matched(), 2u);
  EXPECT_EQ(labeler.outstanding(), 0u);
}

TEST(IdsEvaluation, FrameLabelerKeysOnFormatFlagsDlcAndFdPayload) {
  std::array<std::uint8_t, 64> bytes{};
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = static_cast<std::uint8_t>(i * 7);
  const CanFrame fd = *CanFrame::fd_data(0x123, bytes, /*brs=*/true);
  const CanFrame extended = *CanFrame::data(0x123, std::span(bytes.data(), 8),
                                            can::IdFormat::kExtended);
  const CanFrame remote = *CanFrame::remote(0x123, 8);
  FrameLabeler labeler;
  for (const CanFrame& frame : {fd, extended, remote}) labeler.note_injected(frame);

  // Same numeric id, other format / flags / DLC / last payload byte: no match.
  EXPECT_FALSE(
      labeler.consume_if_attack(CanFrame::data_std(0x123, {0, 7, 14, 21, 28, 35, 42, 49})));
  EXPECT_FALSE(labeler.consume_if_attack(*CanFrame::remote(0x123, 8, can::IdFormat::kExtended)));
  EXPECT_FALSE(labeler.consume_if_attack(*CanFrame::remote(0x123, 7)));
  std::array<std::uint8_t, 64> last_differs = bytes;
  last_differs[63] ^= 1;
  EXPECT_FALSE(labeler.consume_if_attack(*CanFrame::fd_data(0x123, last_differs, true)));
  // The FD bit-rate switch is not part of a frame's identity.
  EXPECT_TRUE(labeler.consume_if_attack(*CanFrame::fd_data(0x123, bytes, /*brs=*/false)));
  EXPECT_TRUE(labeler.consume_if_attack(extended));
  EXPECT_TRUE(labeler.consume_if_attack(remote));
  EXPECT_EQ(labeler.outstanding(), 0u);
}

// The labeler is a multiset of frame contents: check it against std::map
// counts over random interleavings of notes and observations.  The frame
// pool collides on everything but one field at a time (format, remote, FD,
// DLC, length with the same leading bytes), and a burst of 10k notes that are
// never observed grows the table while the pool's notes sit in it.
TEST(IdsEvaluation, FrameLabelerMatchesMultisetModel) {
  std::vector<CanFrame> pool;
  const std::array<std::uint8_t, 64> bytes = [] {
    std::array<std::uint8_t, 64> out{};
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = static_cast<std::uint8_t>(i % 3);
    return out;
  }();
  for (const std::uint32_t id : {0x100u, 0x101u, 0x7FFu}) {
    for (std::size_t length = 0; length <= 8; ++length) {
      // Lengths differing by a trailing zero byte share every stored byte.
      const auto payload = std::span(bytes.data(), length);
      pool.push_back(*CanFrame::data(id, payload));
      pool.push_back(*CanFrame::data(id, payload, can::IdFormat::kExtended));
      pool.push_back(*CanFrame::remote(id, static_cast<std::uint8_t>(length)));
    }
    for (const std::size_t length : {8u, 12u, 16u, 64u}) {
      pool.push_back(*CanFrame::fd_data(id, std::span(bytes.data(), length), true));
    }
  }

  using ModelKey = std::tuple<std::uint32_t, bool, bool, bool, std::uint8_t,
                              std::vector<std::uint8_t>>;
  auto model_key = [](const CanFrame& frame) {
    return ModelKey{frame.id(),     frame.is_extended(), frame.is_remote(),
                    frame.is_fd(),  frame.dlc(),
                    std::vector<std::uint8_t>(frame.payload().begin(), frame.payload().end())};
  };
  std::map<ModelKey, std::uint64_t> model;
  std::uint64_t injected = 0;
  std::uint64_t matched = 0;
  FrameLabeler labeler;
  util::Rng rng(0x1ABE1);

  auto check_counts = [&] {
    ASSERT_EQ(labeler.injected(), injected);
    ASSERT_EQ(labeler.matched(), matched);
    ASSERT_EQ(labeler.outstanding(), injected - matched);
  };
  auto note = [&](const CanFrame& frame) {
    labeler.note_injected(frame);
    ++model[model_key(frame)];
    ++injected;
  };
  auto consume = [&](const CanFrame& frame) {
    auto it = model.find(model_key(frame));
    const bool expected = it != model.end();
    if (expected && --it->second == 0) model.erase(it);
    matched += expected ? 1 : 0;
    ASSERT_EQ(labeler.consume_if_attack(frame), expected) << frame.to_string();
  };
  auto interleave = [&](int steps) {
    for (int step = 0; step < steps; ++step) {
      const CanFrame& frame = rng.pick(pool);
      if (rng.next_bool(0.45)) {
        note(frame);
      } else {
        consume(frame);
      }
      check_counts();
    }
  };

  interleave(20000);
  std::vector<CanFrame> unobserved;
  for (std::uint32_t i = 0; i < 10000; ++i) {
    const std::uint8_t payload[4] = {static_cast<std::uint8_t>(i),
                                     static_cast<std::uint8_t>(i >> 8), 0x5A, 0xA5};
    unobserved.push_back(*CanFrame::data(0x300 + (i % 7), payload));
    note(unobserved.back());
  }
  check_counts();
  interleave(20000);
  for (const CanFrame& frame : unobserved) consume(frame);
  check_counts();
  for (const CanFrame& frame : pool) {
    while (model.contains(model_key(frame))) consume(frame);
  }
  EXPECT_TRUE(model.empty());
  EXPECT_EQ(labeler.outstanding(), 0u);
  for (const CanFrame& frame : pool) EXPECT_FALSE(labeler.consume_if_attack(frame));
}

TEST(IdsEvaluation, ConfusionCountsAndRocFromHistograms) {
  DetectorEval eval;
  eval.threshold = 0.5;
  // Perfectly separated scores: attacks at 0.9, legitimate at 0.1.
  eval.attack_bins[DetectorEval::bin_of(0.9)] = 90;
  eval.fn = 10;
  eval.attack_bins[DetectorEval::bin_of(0.2)] = 10;
  eval.tp = 90;
  eval.legit_bins[DetectorEval::bin_of(0.1)] = 200;
  eval.tn = 200;
  EXPECT_DOUBLE_EQ(eval.precision(), 1.0);
  EXPECT_DOUBLE_EQ(eval.recall(), 0.9);
  EXPECT_NEAR(eval.f1(), 2.0 * 0.9 / 1.9, 1e-12);
  EXPECT_DOUBLE_EQ(eval.false_positive_rate(), 0.0);
  EXPECT_GT(eval.auc(), 0.94);

  const std::vector<RocPoint> roc = eval.roc(11);
  ASSERT_EQ(roc.size(), 11u);
  EXPECT_DOUBLE_EQ(roc.front().tpr, 1.0);  // threshold 0: everything alerts
  EXPECT_DOUBLE_EQ(roc.front().fpr, 1.0);
  EXPECT_DOUBLE_EQ(roc.back().tpr, 0.0);  // threshold 1: nothing reaches it
  EXPECT_DOUBLE_EQ(roc.back().fpr, 0.0);
  // TPR/FPR are monotone non-increasing in the threshold.
  for (std::size_t i = 1; i < roc.size(); ++i) {
    EXPECT_LE(roc[i].tpr, roc[i - 1].tpr);
    EXPECT_LE(roc[i].fpr, roc[i - 1].fpr);
  }

  DetectorEval other;
  other.tp = 10;
  other.attack_bins[DetectorEval::bin_of(0.9)] = 10;
  eval.merge_counts(other);
  EXPECT_EQ(eval.tp, 100u);
  EXPECT_EQ(eval.attack_bins[DetectorEval::bin_of(0.9)], 100u);
}

TEST(IdsEvaluation, EvaluatorLabelsAndTimesDetections) {
  Pipeline pipeline;
  pipeline.add(std::make_unique<DlcConsistencyDetector>(tiny_db()));
  PipelineEvaluator evaluator(pipeline);
  pipeline.begin_detection();

  // Legitimate frame: clean score, counted as a true negative.
  pipeline.observe(CanFrame::data_std(0x100, {1, 2, 3, 4}), 1000ms);
  // Injected wrong-DLC frame: the labeler marks it, the detector fires.
  const CanFrame attack = CanFrame::data_std(0x100, {1});
  evaluator.labeler().note_injected(attack);
  pipeline.observe(attack, 2000ms);

  const TrialEval& eval = evaluator.eval();
  ASSERT_TRUE(eval.valid());
  EXPECT_EQ(eval.legit_frames, 1u);
  EXPECT_EQ(eval.attack_frames, 1u);
  const DetectorEval& det = eval.detectors[0];
  EXPECT_EQ(det.name, "dlc-consistency");
  EXPECT_EQ(det.tn, 1u);
  EXPECT_EQ(det.tp, 1u);
  EXPECT_EQ(det.fp, 0u);
  EXPECT_EQ(det.fn, 0u);
  // First true positive on the first attack frame: zero latency.
  EXPECT_DOUBLE_EQ(det.detection_latency, 0.0);
}

// The labeling hook both IDS worlds send through: a send the inner
// transport refuses leaves no note, an accepted frame is noted once and
// labelled attack when the tap scores it, and everything else is the inner
// transport's.
TEST(IdsEvaluation, LabelingTransportNotesOnlyAcceptedFrames) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  Pipeline pipeline;
  pipeline.add(std::make_unique<DlcConsistencyDetector>(tiny_db()));
  pipeline.attach(bus, "ids-tap");
  PipelineEvaluator evaluator(pipeline);
  pipeline.begin_detection();
  transport::VirtualBusTransport inner(bus, "attacker");
  transport::VirtualBusTransport peer(bus, "peer");
  LabelingTransport labeled(inner, evaluator.labeler());
  const FrameLabeler& labeler = evaluator.labeler();

  EXPECT_EQ(labeled.name(), inner.name());
  EXPECT_EQ(&labeled.stats(), &inner.stats());
  EXPECT_EQ(labeled.bus_error_state(), inner.bus_error_state());
  int received = 0;
  labeled.set_rx_callback([&](const CanFrame&, SimTime) { ++received; });
  ASSERT_TRUE(peer.send(CanFrame::data_std(0x100, {1, 2, 3, 4})));
  scheduler.run_for(1ms);
  EXPECT_EQ(received, 1);
  EXPECT_EQ(evaluator.eval().legit_frames, 1u);

  // Accepted: one note, consumed when the tap scores the frame.
  const CanFrame attack = CanFrame::data_std(0x100, {1});
  ASSERT_TRUE(labeled.send(attack));
  EXPECT_EQ(labeler.injected(), 1u);
  scheduler.run_for(1ms);
  EXPECT_EQ(evaluator.eval().attack_frames, 1u);
  EXPECT_EQ(labeler.outstanding(), 0u);

  // A full transmit queue refuses the last send, which leaves no note.
  constexpr std::size_t kQueue = can::VirtualBus::kTxQueueLimit;
  for (std::size_t i = 0; i < kQueue; ++i) ASSERT_TRUE(labeled.send(attack));
  EXPECT_FALSE(labeled.send(attack));
  EXPECT_EQ(labeler.injected(), 1 + kQueue);
  EXPECT_EQ(inner.stats().send_failures, 1u);
  scheduler.run_for(50ms);
  EXPECT_EQ(evaluator.eval().attack_frames, 1 + kQueue);
  EXPECT_EQ(labeler.outstanding(), 0u);

  // Bus-off refuses every send: no note either.
  bus.force_tx_errors(inner.node_id(), 32);
  ASSERT_TRUE(labeled.send(attack));  // its attempts take the node off
  ASSERT_TRUE(scheduler.run_until_condition([&] { return inner.error_state().bus_off(); },
                                            scheduler.now() + 50ms));
  EXPECT_EQ(labeler.injected(), 2 + kQueue);
  EXPECT_FALSE(labeled.send(attack));
  EXPECT_EQ(labeler.injected(), 2 + kQueue);
  EXPECT_EQ(inner.stats().send_failures, 2u);
  // The frame the bus dropped at bus-off keeps its note: never observed.
  EXPECT_EQ(labeler.outstanding(), 1u);
  EXPECT_EQ(evaluator.eval().attack_frames, 1 + kQueue);
}

// Acceptance criterion: the entropy detector separates captured vehicle
// traffic (Fig. 4) from fuzz traffic (Fig. 5) with AUC > 0.9.
TEST(IdsEvaluation, EntropySeparatesCapturedFromFuzzTraffic) {
  sim::Scheduler scheduler;
  vehicle::Vehicle car(scheduler);
  trace::CaptureTap tap(car.powertrain_bus(), "tap");
  scheduler.run_for(20s);
  const auto& frames = tap.frames();
  ASSERT_GT(frames.size(), 400u);

  // Train on the first half of the capture, score the second half as the
  // legitimate class.
  EntropyDetector detector;
  const std::size_t half = frames.size() / 2;
  std::vector<std::uint32_t> seen_ids;
  for (std::size_t i = 0; i < half; ++i) {
    detector.train(frames[i].frame, frames[i].time);
    if (std::find(seen_ids.begin(), seen_ids.end(), frames[i].frame.id()) == seen_ids.end()) {
      seen_ids.push_back(frames[i].frame.id());
    }
  }
  detector.finalize_training();

  DetectorEval eval;
  for (std::size_t i = half; i < frames.size(); ++i) {
    ++eval.legit_bins[DetectorEval::bin_of(detector.score(frames[i].frame, frames[i].time))];
  }
  // The attack class: random payloads over the same id population.
  fuzzer::RandomGenerator generator(fuzzer::FuzzConfig::targeted(seen_ids));
  for (int i = 0; i < 2000; ++i) {
    const CanFrame frame = *generator.next();
    ++eval.attack_bins[DetectorEval::bin_of(detector.score(frame, SimTime(30s + i * 1ms)))];
  }
  EXPECT_GT(eval.auc(), 0.9);
}

// ------------------------------------------------------ candump replay -----

// Satellite requirement: a clean capture replayed through a trained pipeline
// must raise zero false positives on every detector.
TEST(IdsReplay, CleanCandumpReplayRaisesNoAlerts) {
  // Capture 30 s of clean bench traffic.
  std::string log_text;
  {
    sim::Scheduler scheduler;
    vehicle::UnlockTestbench bench(scheduler);
    trace::CaptureTap tap(bench.bus(), "tap");
    scheduler.run_for(30s);
    ASSERT_GT(tap.size(), 100u);
    std::ostringstream out;
    trace::write_candump(out, tap.frames());
    log_text = out.str();
  }

  // Round-trip through the candump text format.
  std::istringstream in(log_text);
  std::vector<std::string> errors;
  const auto frames = trace::read_candump(in, &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_GT(frames.size(), 100u);

  // Train on the log, freeze, then replay the same clean log in detection.
  Pipeline pipeline;
  for (auto& detector : standard_detectors(dbc::target_vehicle_database())) {
    pipeline.add(std::move(detector));
  }
  pipeline.begin_training();
  for (const auto& entry : frames) pipeline.observe(entry.frame, entry.time);
  pipeline.begin_detection();
  for (const auto& entry : frames) pipeline.observe(entry.frame, entry.time);

  const PipelineCounters counters = pipeline.counters();
  EXPECT_EQ(counters.frames_scored, frames.size());
  EXPECT_EQ(counters.alerts_raised, 0u) << [&] {
    std::string detail;
    for (const Alert& alert : pipeline.drain_alerts()) detail += alert.to_string() + "\n";
    return detail;
  }();
  for (std::size_t i = 0; i < pipeline.detector_count(); ++i) {
    EXPECT_EQ(pipeline.alerts_for(i), 0u) << pipeline.detector(i).name();
  }
}

// ----------------------------------------------------------- fleet eval -----

/// Fast detector-evaluation fleet: reduced id window at 4 kHz so the unlock
/// oracle fires within simulated seconds.
std::vector<IdsArm> fast_ids_arms() {
  fuzzer::FuzzConfig fast = fuzzer::FuzzConfig::around_id(0x215, 3);
  fast.tx_period = std::chrono::microseconds(250);
  IdsArm weak;
  weak.fuzz = fast;
  weak.train_window = 5s;
  IdsArm hardened = weak;
  hardened.predicate = vehicle::UnlockPredicate::id_byte_and_length();
  return {weak, hardened};
}

TEST(IdsFleet, EvaluationIsThreadCountInvariant) {
  const fleet::TrialPlan plan({"weak", "hardened"}, 3, 0xACF17EE7ULL,
                              std::chrono::minutes(5));
  std::vector<ArmIdsReport> reference;
  for (const unsigned threads : {1u, 4u}) {
    fleet::ExecutorConfig config;
    config.threads = threads;
    fleet::Executor executor(config);
    EvalSink sink = make_eval_sink(plan);
    const auto outcomes = executor.run(plan, ids_unlock_world_factory(fast_ids_arms(), sink));
    for (const auto& outcome : outcomes) {
      EXPECT_EQ(outcome.status, fleet::TrialStatus::kCompleted);
    }
    const std::vector<ArmIdsReport> reports = merge_evals(plan, *sink);
    ASSERT_EQ(reports.size(), 2u);
    if (threads == 1) {
      reference = reports;
      // The fuzz phase must actually exercise the detectors.
      EXPECT_GT(reports[0].attack_frames, 0u);
      EXPECT_GT(reports[0].legit_frames, 0u);
      ASSERT_EQ(reports[0].detectors.size(), 4u);
      continue;
    }
    for (std::size_t arm = 0; arm < reports.size(); ++arm) {
      const ArmIdsReport& a = reports[arm];
      const ArmIdsReport& b = reference[arm];
      EXPECT_EQ(a.trials, b.trials);
      EXPECT_EQ(a.attack_frames, b.attack_frames);
      EXPECT_EQ(a.legit_frames, b.legit_frames);
      ASSERT_EQ(a.detectors.size(), b.detectors.size());
      for (std::size_t d = 0; d < a.detectors.size(); ++d) {
        const ArmIdsReport::PerDetector& da = a.detectors[d];
        const ArmIdsReport::PerDetector& db = b.detectors[d];
        EXPECT_EQ(da.merged.tp, db.merged.tp);
        EXPECT_EQ(da.merged.fp, db.merged.fp);
        EXPECT_EQ(da.merged.tn, db.merged.tn);
        EXPECT_EQ(da.merged.fn, db.merged.fn);
        EXPECT_EQ(da.merged.attack_bins, db.merged.attack_bins);
        EXPECT_EQ(da.merged.legit_bins, db.merged.legit_bins);
        EXPECT_EQ(da.trials_detected, db.trials_detected);
        EXPECT_EQ(da.latency.count(), db.latency.count());
        EXPECT_DOUBLE_EQ(da.latency.mean(), db.latency.mean());
        EXPECT_DOUBLE_EQ(da.merged.auc(), db.merged.auc());
      }
    }
  }
}

TEST(IdsFleet, AllowlistCatchesBlindFuzzWithHighRecall) {
  const fleet::TrialPlan plan({"weak"}, 2, 0xACF17EE7ULL, std::chrono::minutes(5));
  fleet::Executor executor({.threads = 2});
  EvalSink sink = make_eval_sink(plan);
  std::vector<IdsArm> arms = {fast_ids_arms()[0]};
  executor.run(plan, ids_unlock_world_factory(std::move(arms), sink));
  const std::vector<ArmIdsReport> reports = merge_evals(plan, *sink);
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_EQ(reports[0].detectors.size(), 4u);
  const ArmIdsReport::PerDetector& allowlist = reports[0].detectors[0];
  // The fast fuzz window spans ids 0x212..0x218 of which only 0x215 is
  // declared: ~6/7 of injected frames hit undeclared ids and most 0x215
  // frames carry an unseen DLC, so recall is near one...
  EXPECT_GT(allowlist.merged.recall(), 0.8);
  // ...and clean bench traffic never alerts.
  EXPECT_EQ(allowlist.merged.fp, 0u);
  EXPECT_EQ(allowlist.trials_detected, reports[0].trials);
  const util::Interval ci = allowlist.detection_rate_ci(reports[0].trials);
  EXPECT_GT(ci.lo, 0.2);
  EXPECT_GT(ci.hi, 0.99);
}

}  // namespace
}  // namespace acf::ids
