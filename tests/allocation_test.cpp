// Heap-allocation budgets of the per-frame paths and of world set-up.  This
// binary replaces the global operator new with a counting one (each test
// source links into its own executable, so no other suite sees it) and
// counts only inside a window around the work under test.  Warm
// steady-state work must not allocate: the full vehicle's ECUs encode and
// decode signals by position on the stack, the IDS labeler's flat table
// stops growing once it holds the pending peak, and the scheduler's
// same-instant lane is threaded through its event slots.  Building a
// feedback execution's world has a fixed budget, resetting it in place
// allocates nothing, and a warm execution allocates only its outcome.  An
// IDS-tapped Table V trial keeps a budget of heap bytes.  A capture tap's
// buffer grows geometrically however often it is read.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "can/frame.hpp"
#include "dbc/target_vehicle_db.hpp"
#include "feedback/exec_world.hpp"
#include "fleet/trial_plan.hpp"
#include "ids/evaluation.hpp"
#include "ids/ids_world.hpp"
#include "sim/scheduler.hpp"
#include "trace/capture.hpp"
#include "vehicle/vehicle.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

void count(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  count(size);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  count(size);
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded)) return p;
  throw std::bad_alloc();
}

std::uint64_t allocations() { return g_allocations.load(std::memory_order_relaxed); }
std::uint64_t bytes_allocated() { return g_bytes.load(std::memory_order_relaxed); }

}  // namespace

// The nothrow and sized forms of the library forward to these.  The array
// forms are replaced too: the library's forward to the scalar ones, but
// AddressSanitizer intercepts `new[]` itself, so the scheduler's slab chunk
// (`new Event[64]`) would go uncounted in the sanitizer build.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace acf {
namespace {

using namespace std::chrono_literals;

TEST(VehicleAllocations, SteadyStateDriveCycleAllocatesNothing) {
  const std::uint64_t at_start = allocations();
  sim::Scheduler scheduler{256};
  vehicle::Vehicle vehicle(scheduler);
  ASSERT_GT(allocations(), at_start) << "building a vehicle allocates: the counter is not live";

  scheduler.run_until(sim::SimTime{200ms});  // warm-up: every periodic has fired
  auto frames_delivered = [&vehicle] {
    return vehicle.powertrain_bus().stats().frames_delivered +
           vehicle.body_bus().stats().frames_delivered;
  };
  const std::uint64_t before = allocations();
  const std::uint64_t frames_before = frames_delivered();
  scheduler.run_until(sim::SimTime{2200ms});
  const std::uint64_t during = allocations() - before;
  const std::uint64_t frames = frames_delivered() - frames_before;

  EXPECT_GT(frames, 800u);  // 2 s of both buses' periodic traffic (920 frames)
  EXPECT_EQ(during, 0u) << "over " << frames << " frames";
}

TEST(CaptureAllocations, TapReadAfterEveryEventGrowsGeometrically) {
  // run_until_condition reads the tap after every event, as
  // bench_fig4_capture_means does for its 100,000 frames.  A tap that
  // reallocated its buffer one frame at a time there copied it whole per
  // frame (quadratic in the capture).
  sim::Scheduler scheduler{256};
  vehicle::Vehicle vehicle(scheduler);
  scheduler.run_until(sim::SimTime{200ms});  // warm-up: every periodic has fired
  trace::CaptureTap tap(vehicle.powertrain_bus(), "tap");
  const std::uint64_t before = allocations();
  ASSERT_TRUE(scheduler.run_until_condition([&tap] { return tap.size() >= 4000; },
                                            sim::SimTime{120s}));
  // 13 doublings reach 4,096 frames; the bus rebuilds its receiver list once.
  EXPECT_LE(allocations() - before, 20u);
}

TEST(LabelerAllocations, WarmTableAllocatesNothing) {
  std::vector<can::CanFrame> frames;
  for (std::uint8_t i = 0; i < 16; ++i) {
    const std::uint8_t payload[8] = {i, 0x5F, 0x01, 0x00, i, 0x20, 0x00, 0x00};
    frames.push_back(*can::CanFrame::data(0x215 + (i % 3), payload));
  }
  ids::FrameLabeler labeler;
  // Notes run eight frames ahead of observations, and every other
  // observation is legitimate traffic the labeler holds no note for; each
  // run ends drained.
  auto run = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      labeler.note_injected(frames[i % frames.size()]);
      if (i >= 8) labeler.consume_if_attack(frames[(i - 8) % frames.size()]);
      labeler.consume_if_attack(*can::CanFrame::data(0x7DF, frames[i % frames.size()].payload()));
    }
    for (std::size_t i = count - 8; i < count; ++i) {
      labeler.consume_if_attack(frames[i % frames.size()]);
    }
  };
  run(10000);  // warm-up: the table grows to the pending peak
  const std::uint64_t before = allocations();
  run(10000);
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_EQ(labeler.injected(), 20000u);
  EXPECT_EQ(labeler.matched(), 20000u);
}

// Heap allocations made by building and destroying a feedback campaign's
// world (scheduler, testbench, attacker, tap and oracle).  A campaign builds
// it once and resets it for every later execution.
constexpr std::uint64_t kFeedbackWorldAllocations = 21;

TEST(WorldAllocations, FeedbackExecutionWorldKeepsItsBudget) {
  auto build_and_destroy = [] {
    feedback::ExecWorld world(vehicle::UnlockPredicate::single_id_and_byte());
  };
  build_and_destroy();  // first use builds the shared target-vehicle database
  const std::uint64_t before = allocations();
  build_and_destroy();
  EXPECT_EQ(allocations() - before, kFeedbackWorldAllocations);
}

/// Frames that leave state in every piece of the world: an unlock and a
/// rejected command at the BCM, a UDS session change and seed request, the
/// first frame of a UDS request the BCM never gets the rest of, and frames
/// on an id nobody listens to.
std::vector<can::CanFrame> dirtying_sequence() {
  const std::uint8_t unlock[7] = {dbc::kCmdUnlock, 0x5F, 0x01, 0x00, 0x01, 0x20, 0x00};
  const std::uint8_t rejected[2] = {0x33, 0x5F};
  const std::uint8_t session[8] = {0x02, 0x10, 0x03, 0xCC, 0xCC, 0xCC, 0xCC, 0xCC};
  const std::uint8_t seed[8] = {0x02, 0x27, 0x01, 0xCC, 0xCC, 0xCC, 0xCC, 0xCC};
  const std::uint8_t first_frame[8] = {0x10, 0x14, 0x2E, 0xF1, 0x90, 0x01, 0x02, 0x03};
  const std::uint8_t noise[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  return {*can::CanFrame::data(dbc::kMsgBodyCommand, unlock),
          *can::CanFrame::data(dbc::kMsgBodyCommand, rejected),
          *can::CanFrame::data(dbc::kUdsBcmRequest, session),
          *can::CanFrame::data(dbc::kUdsBcmRequest, seed),
          *can::CanFrame::data(dbc::kUdsBcmRequest, first_frame),
          *can::CanFrame::data(0x123, noise)};
}

TEST(WorldAllocations, FeedbackWorldResetAllocatesNothing) {
  feedback::ExecWorld world(vehicle::UnlockPredicate::single_id_and_byte());
  fuzzer::CoverageTracker coverage;
  const std::vector<can::CanFrame> sequence = dirtying_sequence();
  for (int warm_up = 0; warm_up < 2; ++warm_up) {
    world.reset();
    world.execute(sequence, coverage);
  }
  ASSERT_EQ(world.bench().bcm().unlock_events(), 1u);
  ASSERT_GT(world.scheduler().pending_events(), 0u);  // the reset drops them
  const std::uint64_t before = allocations();
  world.reset();
  EXPECT_EQ(allocations() - before, 0u);
}

// Heap allocations of one warm feedback execution (ExecWorld::reset and
// execute) of a sequence the world has run before and the BCM rejects: the
// outcome's feature list and nothing else.
constexpr std::uint64_t kWarmExecutionAllocations = 1;

TEST(FeedbackAllocations, WarmExecutionKeepsItsBudget) {
  feedback::ExecWorld world(vehicle::UnlockPredicate::single_id_and_byte());
  fuzzer::CoverageTracker coverage;
  const std::uint8_t rejected[3] = {0x33, 0x5F, 0x01};
  const std::uint8_t noise[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<can::CanFrame> sequence = {
      *can::CanFrame::data(dbc::kMsgBodyCommand, rejected), *can::CanFrame::data(0x123, noise)};
  world.execute(sequence, coverage);  // warm-up
  world.reset();
  world.execute(sequence, coverage);
  const std::uint64_t before = allocations();
  world.reset();
  const feedback::ExecOutcome outcome = world.execute(sequence, coverage);
  const std::uint64_t during = allocations() - before;
  EXPECT_EQ(outcome.frames_sent, 2u);
  EXPECT_TRUE(outcome.hot);  // the rejected command moved a BCM counter
  EXPECT_EQ(during, kWarmExecutionAllocations);
}

// Heap bytes allocated by one IDS-tapped Table V trial (world build, 30 s of
// clean training, 5 s of full-range fuzz, teardown), about 10% above what it
// allocates.  Most of them are the pipeline's alert queue and the detectors'
// per-id state for the ~1,900 ids the fuzz touches.
constexpr std::uint64_t kIdsUnlockTrialBytes = 880'000;

TEST(WorldAllocations, IdsUnlockTrialKeepsItsHeapBudget) {
  const fleet::TrialPlan plan({"weak"}, 1, /*base_seed=*/0, std::chrono::seconds(5));
  const ids::EvalSink sink = ids::make_eval_sink(plan);
  const fleet::WorldFactory factory = ids::ids_unlock_world_factory({ids::IdsArm{}}, sink);
  auto run_trial = [&] { factory(plan.spec(0))->run(); };
  run_trial();  // first use builds the shared target-vehicle database
  const std::uint64_t before = bytes_allocated();
  run_trial();
  const std::uint64_t bytes = bytes_allocated() - before;
  EXPECT_GT((*sink)[0].attack_frames, 4000u);  // the whole 5 s of fuzz was scored
  EXPECT_LE(bytes, kIdsUnlockTrialBytes);
}

TEST(SchedulerAllocations, WarmSameInstantTrafficAllocatesNothing) {
  // Every tick of eight periodic events schedules two same-instant events
  // and cancels one of them, so the lane, lane cancels and in-place
  // re-arms carry all the traffic.
  sim::Scheduler scheduler{256};
  std::uint64_t lane_fires = 0;
  for (std::int64_t period = 1; period <= 8; ++period) {
    scheduler.schedule_every(sim::Duration{period * 1000}, [&scheduler, &lane_fires] {
      scheduler.schedule_at(scheduler.now(), [&lane_fires] { ++lane_fires; });
      const sim::EventId doomed =
          scheduler.schedule_after(sim::Duration{0}, [&lane_fires] { ++lane_fires; });
      scheduler.cancel(doomed);
    });
  }
  scheduler.run_until(sim::SimTime{100us});  // warm-up
  const std::uint64_t before = allocations();
  const std::uint64_t executed_before = scheduler.executed_events();
  const std::uint64_t lane_before = lane_fires;
  scheduler.run_until(sim::SimTime{2100us});
  const std::uint64_t during = allocations() - before;

  EXPECT_GE(scheduler.executed_events() - executed_before, 10000u);
  EXPECT_GE(lane_fires - lane_before, 5000u);
  EXPECT_EQ(during, 0u);
}

}  // namespace
}  // namespace acf
