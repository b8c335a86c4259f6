#include "probes.hpp"

#include <atomic>
#include <memory>
#include <string>

#include "attacks/attack_world.hpp"
#include "can/bus.hpp"
#include "can/wire_codec.hpp"
#include "dbc/target_vehicle_db.hpp"
#include "feedback/novelty.hpp"
#include "feedback/sequence_mutator.hpp"
#include "fleet/executor.hpp"
#include "fuzzer/campaign.hpp"
#include "fuzzer/generator.hpp"
#include "ids/detectors.hpp"
#include "ids/evaluation.hpp"
#include "ids/pipeline.hpp"
#include "metrics/ckms.hpp"
#include "metrics/metrics.hpp"
#include "oracle/vehicle_oracles.hpp"
#include "sim/scheduler.hpp"
#include "trace/capture.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "vehicle/vehicle.hpp"

namespace perfbench {

namespace {

using acf::trace::TimestampedFrame;
using Frames = std::vector<TimestampedFrame>;

constexpr int kRepetitions = 5;
/// Clean traffic the IDS trains on, as in the IDS unlock worlds.
constexpr acf::sim::Duration kCleanWindow = std::chrono::seconds(30);
/// Simulated time of fuzz traffic captured from the sample trial.
constexpr acf::sim::Duration kFuzzWindow = std::chrono::seconds(5);

/// Keeps probe results observable so the timed work is not optimised away.
std::atomic<std::uint64_t> g_sink{0};
void consume(std::uint64_t value) { g_sink.fetch_add(value, std::memory_order_relaxed); }

/// Median over repetitions of (elapsed ns / operations) for `body`, which
/// does a fixed amount of work and returns its operation count.
template <typename Body>
double median_ns_per_op(Body&& body) {
  std::vector<double> samples;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    const std::int64_t start = now_ns();
    const double ops = body();
    samples.push_back(static_cast<double>(now_ns() - start) / ops);
  }
  return percentile(samples, 50.0);
}

/// Median wall time of `reps` single calls of `body`, in microseconds.
template <typename Body>
double median_us(int reps, Body&& body) {
  std::vector<double> samples;
  for (int rep = 0; rep < reps; ++rep) {
    const std::int64_t start = now_ns();
    body();
    samples.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  return percentile(samples, 50.0);
}

/// Traffic from one sample world: clean frames before the attack starts,
/// frames under attack after, and the node count of the captured bus
/// without the capture tap.
struct Segment {
  Frames clean;
  Frames attack;
  std::size_t bus_nodes = 0;
};

/// The feedback loop's frame stream: mutated sequences from the loop's
/// own SequenceMutator, back to back.
class MutatorStream final : public acf::fuzzer::FrameGenerator {
 public:
  explicit MutatorStream(std::uint64_t seed) : seed_(seed), rng_(seed) {}
  std::string_view name() const override { return "mutator"; }
  std::optional<acf::can::CanFrame> next() override {
    if (cursor_ == pending_.size()) {
      pending_ = mutator_.fresh(rng_);
      mutator_.mutate(rng_, pending_, nullptr);
      cursor_ = 0;
    }
    ++generated_;
    return pending_[cursor_++];
  }
  void rewind() override {
    rng_ = acf::util::Rng(seed_);
    pending_.clear();
    cursor_ = 0;
    generated_ = 0;
  }

 private:
  std::uint64_t seed_;
  acf::util::Rng rng_;
  acf::feedback::SequenceMutator mutator_;
  std::vector<acf::can::CanFrame> pending_;
  std::size_t cursor_ = 0;
};

/// The unlock testbench as its worlds build it (bench, attacker, unlock
/// oracle), tapped: a clean window, then `generator` at 1 ms.
Segment capture_testbench(acf::fuzzer::FrameGenerator& generator) {
  acf::sim::Scheduler scheduler{256};
  acf::vehicle::UnlockTestbench bench(scheduler);
  acf::transport::VirtualBusTransport attacker(bench.bus(), "attacker");
  acf::oracle::UnlockOracle oracle(bench.bus(), &bench.bcm());
  Segment segment;
  segment.bus_nodes = bench.bus().node_count();
  acf::trace::CaptureTap tap(bench.bus(), "probe-tap");
  scheduler.run_for(kCleanWindow);
  segment.clean = tap.frames();
  tap.clear();
  acf::fuzzer::CampaignConfig config;
  config.max_duration = kFuzzWindow;
  config.record_suspicious = false;
  // No oracle: the capture runs its whole window instead of stopping at an
  // unlock.
  acf::fuzzer::FuzzCampaign campaign(scheduler, attacker, generator, nullptr, config);
  campaign.run();
  segment.attack = tap.frames();
  return segment;
}

std::vector<Segment> capture(const Workload& workload) {
  const acf::fleet::TrialSpec sample = workload.plan().spec(0);
  switch (workload.kind()) {
    case WorkloadKind::kUnlockBlind:
    case WorkloadKind::kUnlockIds: {
      acf::fuzzer::RandomGenerator generator(acf::fuzzer::FuzzConfig::full_random(sample.seed));
      return {capture_testbench(generator)};
    }
    case WorkloadKind::kFeedback: {
      MutatorStream generator(sample.seed);
      return {capture_testbench(generator)};
    }
    case WorkloadKind::kAttackMatrix: {
      // One sample trial per attack family, each on its own observed bus.
      acf::sim::Scheduler scheduler;
      acf::vehicle::Vehicle car(scheduler);
      const std::vector<acf::attacks::AttackArm> arms = acf::attacks::standard_attack_arms();
      std::vector<Segment> segments;
      for (std::size_t arm = 0; arm < arms.size(); ++arm) {
        const acf::attacks::AttackTrialResult trial = acf::attacks::run_attack_trial(
            arms[arm], workload.plan().spec(arm), nullptr, /*capture_observed=*/true);
        Segment segment;
        for (const TimestampedFrame& frame : trial.observed) {
          (frame.time < trial.attack_start ? segment.clean : segment.attack).push_back(frame);
        }
        // The vehicle's own nodes on that bus plus the attacker and IDS tap.
        segment.bus_nodes = (arms[arm].spec.bus == acf::attacks::AttackBus::kPowertrain
                                 ? car.powertrain_bus().node_count()
                                 : car.body_bus().node_count()) +
                            2;
        segments.push_back(std::move(segment));
      }
      return segments;
    }
  }
  return {};
}

std::size_t attack_frames(const std::vector<Segment>& segments) {
  std::size_t total = 0;
  for (const Segment& segment : segments) total += segment.attack.size();
  return total;
}

/// A bus node that counts what it receives.
class CountingNode final : public acf::can::BusListener {
 public:
  void on_frame(const acf::can::CanFrame&, acf::sim::SimTime) override { ++frames_; }
  std::uint64_t frames() const noexcept { return frames_; }

 private:
  std::uint64_t frames_ = 0;
};

/// Schedules `schedule(frame)` at each captured instant, segment after
/// segment on one clock, in batches so the pending-event depth stays small
/// as in a world; returns the events dispatched.
template <typename Schedule>
std::size_t replay_on(acf::sim::Scheduler& scheduler, const std::vector<Segment>& segments,
                      Schedule&& schedule) {
  constexpr std::size_t kBatch = 64;
  std::size_t events = 0;
  for (const Segment& segment : segments) {
    for (const Frames* frames : {&segment.clean, &segment.attack}) {
      if (frames->empty()) continue;
      const acf::sim::SimTime base = frames->front().time;
      const acf::sim::SimTime offset = scheduler.now() + std::chrono::milliseconds(1);
      for (std::size_t i = 0; i < frames->size(); i += kBatch) {
        const std::size_t end = std::min(frames->size(), i + kBatch);
        for (std::size_t j = i; j < end; ++j) {
          schedule(offset + ((*frames)[j].time - base), (*frames)[j].frame);
        }
        scheduler.run_until(offset + ((*frames)[end - 1].time - base));
        events += end - i;
      }
    }
  }
  return events;
}

void probe_sim_and_can(const std::vector<Segment>& segments, std::vector<Metric>& out) {
  std::vector<acf::can::CanFrame> frames;
  for (const Segment& segment : segments) {
    for (const Frames* list : {&segment.clean, &segment.attack}) {
      for (const TimestampedFrame& f : *list) frames.push_back(f.frame);
    }
  }
  out.push_back({"can.wire_bits_ns", median_ns_per_op([&] {
                   std::uint64_t bits = 0;
                   constexpr int kPasses = 20;
                   for (int pass = 0; pass < kPasses; ++pass) {
                     for (const acf::can::CanFrame& frame : frames) {
                       bits += acf::can::wire_bit_count(frame);
                     }
                   }
                   consume(bits);
                   return static_cast<double>(frames.size()) * kPasses;
                 }),
                 "ns"});

  out.push_back({"sim.dispatch_ns", median_ns_per_op([&] {
                   acf::sim::Scheduler scheduler{256};
                   std::uint64_t ids = 0;
                   const std::size_t events = replay_on(
                       scheduler, segments,
                       [&](acf::sim::SimTime when, const acf::can::CanFrame& frame) {
                         scheduler.schedule_at(when, [&ids, id = frame.id()] { ids += id; });
                       });
                   consume(ids);
                   return static_cast<double>(events);
                 }),
                 "ns"});

  // One replay bus per segment with that world's node count: a sender plus
  // passive receivers.
  std::vector<double> samples;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    std::int64_t elapsed = 0;
    std::uint64_t delivered = 0;
    for (const Segment& segment : segments) {
      acf::sim::Scheduler scheduler{256};
      acf::can::VirtualBus bus(scheduler);
      CountingNode sender_node;
      const acf::can::NodeId sender = bus.attach(sender_node, "sender");
      std::vector<std::unique_ptr<CountingNode>> receivers;
      for (std::size_t n = 1; n < segment.bus_nodes; ++n) {
        receivers.push_back(std::make_unique<CountingNode>());
        bus.attach(*receivers.back(), "receiver-" + std::to_string(n));
      }
      const std::vector<Segment> one = {segment};
      const std::int64_t start = now_ns();
      replay_on(scheduler, one, [&](acf::sim::SimTime when, const acf::can::CanFrame& frame) {
        scheduler.schedule_at(when, [&bus, sender, frame] { bus.submit(sender, frame); });
      });
      scheduler.run_for(std::chrono::milliseconds(10));  // drain the last transmissions
      elapsed += now_ns() - start;
      delivered += bus.stats().frames_delivered;
      for (const auto& receiver : receivers) consume(receiver->frames());
    }
    samples.push_back(static_cast<double>(elapsed) / static_cast<double>(delivered));
  }
  out.push_back({"can.bus_ns_per_frame", percentile(samples, 50.0), "ns"});
}

void probe_fuzzer(const Workload& workload, std::vector<Metric>& out) {
  acf::fuzzer::RandomGenerator generator(
      acf::fuzzer::FuzzConfig::full_random(workload.plan().spec(0).seed));
  out.push_back({"fuzzer.generator_ns", median_ns_per_op([&] {
                   constexpr int kFrames = 100000;
                   std::uint64_t ids = 0;
                   for (int i = 0; i < kFrames; ++i) ids += generator.next()->id();
                   consume(ids);
                   return static_cast<double>(kFrames);
                 }),
                 "ns"});
}

void probe_ids(const std::vector<Segment>& segments, std::vector<Metric>& out) {
  const acf::dbc::Database database = acf::dbc::target_vehicle_database();
  const double frames = static_cast<double>(attack_frames(segments));

  // The pipeline the IDS worlds tap onto their bus, trained on each
  // segment's clean window.
  std::vector<std::unique_ptr<acf::ids::Pipeline>> pipelines;
  for (const Segment& segment : segments) {
    auto pipeline = std::make_unique<acf::ids::Pipeline>();
    for (auto& detector : acf::ids::standard_detectors(database)) {
      pipeline->add(std::move(detector));
    }
    pipeline->begin_training();
    for (const TimestampedFrame& f : segment.clean) pipeline->observe(f.frame, f.time);
    pipeline->begin_detection();
    pipelines.push_back(std::move(pipeline));
  }
  out.push_back({"ids.pipeline_ns_per_frame", median_ns_per_op([&] {
                   for (std::size_t s = 0; s < segments.size(); ++s) {
                     pipelines[s]->reset_detection();
                     for (const TimestampedFrame& f : segments[s].attack) {
                       pipelines[s]->observe(f.frame, f.time);
                     }
                     consume(pipelines[s]->drain_alerts().size());
                   }
                   return frames;
                 }),
                 "ns"});

  // Each standard detector alone, through Detector::score.
  const std::size_t detector_count = acf::ids::standard_detectors(database).size();
  for (std::size_t d = 0; d < detector_count; ++d) {
    std::vector<std::unique_ptr<acf::ids::Detector>> trained;
    for (const Segment& segment : segments) {
      std::unique_ptr<acf::ids::Detector> detector =
          std::move(acf::ids::standard_detectors(database)[d]);
      for (const TimestampedFrame& f : segment.clean) detector->train(f.frame, f.time);
      detector->finalize_training();
      trained.push_back(std::move(detector));
    }
    const double ns = median_ns_per_op([&] {
      double sum = 0.0;
      for (std::size_t s = 0; s < segments.size(); ++s) {
        trained[s]->reset();
        for (const TimestampedFrame& f : segments[s].attack) sum += trained[s]->score(f.frame, f.time);
      }
      consume(static_cast<std::uint64_t>(sum));
      return frames;
    });
    out.push_back({"ids." + std::string(trained.front()->name()) + "_ns", ns, "ns"});
  }

  out.push_back({"ids.labeler_ns", median_ns_per_op([&] {
                   acf::ids::FrameLabeler labeler;
                   for (const Segment& segment : segments) {
                     for (const TimestampedFrame& f : segment.attack) labeler.note_injected(f.frame);
                   }
                   for (const Segment& segment : segments) {
                     for (const TimestampedFrame& f : segment.attack) {
                       consume(labeler.consume_if_attack(f.frame) ? 1 : 0);
                     }
                   }
                   return frames;
                 }),
                 "ns"});

  out.push_back({"ids.detector_set_build_us", median_us(200, [] {
                   consume(acf::ids::standard_detectors(acf::dbc::target_vehicle_database()).size());
                 }),
                 "us"});
}

void probe_feedback(const Workload& workload, const std::vector<Segment>& segments,
                    std::vector<Metric>& out) {
  // The world one feedback execution builds and tears down.
  out.push_back({"feedback.exec_world_us", median_us(500, [] {
                   acf::sim::Scheduler scheduler{256};
                   acf::vehicle::UnlockTestbench bench(scheduler);
                   acf::transport::VirtualBusTransport attacker(bench.bus(), "attacker");
                   acf::trace::CaptureTap tap(bench.bus(), "feedback.tap");
                   acf::oracle::UnlockOracle oracle(bench.bus(), &bench.bcm());
                   consume(bench.bus().node_count());
                 }),
                 "us"});

  const acf::feedback::SequenceMutator mutator;
  acf::util::Rng rng(workload.plan().spec(0).seed);
  std::vector<std::vector<acf::can::CanFrame>> corpus;
  for (int i = 0; i < 64; ++i) corpus.push_back(mutator.fresh(rng));
  out.push_back({"feedback.mutate_ns", median_ns_per_op([&] {
                   constexpr std::size_t kMutations = 20000;
                   for (std::size_t i = 0; i < kMutations; ++i) {
                     mutator.mutate(rng, corpus[i % corpus.size()],
                                    &corpus[(i + 1) % corpus.size()]);
                   }
                   consume(corpus.front().size());
                   return static_cast<double>(kMutations);
                 }),
                 "ns"});

  // Frame-cell features of the captured traffic, observed a few at a time
  // as an execution's feature set is.
  std::vector<acf::feedback::Feature> features;
  for (const Segment& segment : segments) {
    for (std::size_t i = 0; i < segment.attack.size(); ++i) {
      const acf::can::CanFrame& frame = segment.attack[i].frame;
      features.push_back(acf::feedback::make_feature(
          acf::feedback::Domain::kFrameCell,
          (static_cast<std::uint64_t>(frame.id()) << 8) | frame.dlc(), 1 + i % 3));
    }
  }
  out.push_back({"feedback.novelty_ns", median_ns_per_op([&] {
                   constexpr std::size_t kChunk = 8;
                   acf::feedback::NoveltyMap map;
                   std::size_t fresh = 0;
                   for (std::size_t i = 0; i < features.size(); i += kChunk) {
                     const std::size_t n = std::min(kChunk, features.size() - i);
                     fresh += map.observe_all(std::span(features).subspan(i, n));
                   }
                   consume(fresh);
                   return static_cast<double>(features.size());
                 }),
                 "ns"});
}

void probe_vehicle_and_dbc(std::vector<Metric>& out) {
  out.push_back({"vehicle.build_us", median_us(50, [] {
                   acf::sim::Scheduler scheduler;
                   acf::vehicle::Vehicle car(scheduler);
                   consume(car.powertrain_bus().node_count());
                 }),
                 "us"});
  out.push_back({"dbc.database_build_us", median_us(200, [] {
                   consume(acf::dbc::target_vehicle_database().messages().size());
                 }),
                 "us"});
}

void probe_metrics(std::vector<Metric>& out) {
  // What an IDS world publishes at trial end, into a long-lived registry.
  acf::sim::Scheduler scheduler{256};
  acf::vehicle::UnlockTestbench bench(scheduler);
  acf::ids::Pipeline pipeline;
  for (auto& detector : acf::ids::standard_detectors(acf::dbc::target_vehicle_database())) {
    pipeline.add(std::move(detector));
  }
  pipeline.attach(bench.bus(), "ids-tap");
  pipeline.begin_training();
  scheduler.run_for(std::chrono::seconds(1));
  acf::fleet::TrialOutcome outcome;
  outcome.status = acf::fleet::TrialStatus::kCompleted;
  outcome.frames_sent = 1000;
  outcome.sim_seconds = 1.0;
  acf::metrics::Registry registry;
  out.push_back({"metrics.publish_us", median_us(1000, [&] {
                   scheduler.publish_metrics(registry);
                   bench.bus().publish_metrics(registry);
                   registry.absorb(pipeline.registry().snapshot());
                   acf::fleet::record_trial_metrics(registry, outcome);
                 }),
                 "us"});

  acf::util::Rng rng(7);
  out.push_back({"metrics.ckms_insert_ns", median_ns_per_op([&] {
                   constexpr int kInserts = 200000;
                   acf::metrics::CkmsQuantiles quantiles;
                   for (int i = 0; i < kInserts; ++i) quantiles.insert(rng.next_double());
                   consume(quantiles.count());
                   return static_cast<double>(kInserts);
                 }),
                 "ns"});
}

}  // namespace

std::vector<Metric> run_probes(const Workload& workload) {
  const std::vector<Segment> segments = capture(workload);
  std::vector<Metric> out;
  probe_sim_and_can(segments, out);
  probe_fuzzer(workload, out);
  probe_ids(segments, out);
  probe_feedback(workload, segments, out);
  probe_vehicle_and_dbc(out);
  probe_metrics(out);
  return out;
}

}  // namespace perfbench
