#include <gtest/gtest.h>

#include <sstream>

#include "sim/scheduler.hpp"
#include "trace/candump_log.hpp"
#include "trace/replay.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "util/rng.hpp"

namespace acf::trace {
namespace {

TimestampedFrame entry(std::uint32_t id, std::initializer_list<std::uint8_t> payload,
                       std::int64_t ns) {
  return {can::CanFrame::data_std(id, payload), sim::SimTime{ns}};
}

// ------------------------------------------------------------ capture -----

TEST(CaptureTap, RecordsBusTraffic) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  CaptureTap tap(bus, "tap");
  transport::VirtualBusTransport tx(bus, "tx");
  tx.send(can::CanFrame::data_std(0x43A, {0x1C}));
  tx.send(can::CanFrame::data_std(0x296, {}));
  scheduler.run_for(std::chrono::milliseconds(2));
  ASSERT_EQ(tap.size(), 2u);
  EXPECT_EQ(tap.frames()[0].frame.id(), 0x43Au);
  EXPECT_LT(tap.frames()[0].time, tap.frames()[1].time);
  EXPECT_EQ(tap.total_seen(), 2u);
}

TEST(CaptureTap, LimitStopsGrowthButKeepsCounting) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  CaptureTap tap(bus, "tap", /*limit=*/3);
  transport::VirtualBusTransport tx(bus, "tx");
  for (int i = 0; i < 10; ++i) {
    tx.send(can::CanFrame::data_std(0x100, {static_cast<std::uint8_t>(i)}));
    scheduler.run_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(tap.size(), 3u);
  EXPECT_EQ(tap.total_seen(), 10u);
  EXPECT_EQ(tap.frames()[0].frame.payload()[0], 0u);  // first 3, not last 3
}

// ------------------------------------------------------------ candump -----

TEST(Candump, LineRendering) {
  const auto line = to_candump_line(entry(0x43A, {0x1C, 0x21, 0x17, 0x71}, 5'328'009'000));
  EXPECT_EQ(line, "(5.328009) can0 43A#1C211771");
}

TEST(Candump, RemoteAndEmptyFrames) {
  EXPECT_EQ(to_candump_line({*can::CanFrame::remote(0x123, 4), sim::SimTime{0}}),
            "(0.000000) can0 123#R4");
  EXPECT_EQ(to_candump_line(entry(0x68, {}, 0)), "(0.000000) can0 068#");
}

TEST(Candump, ParseDataLine) {
  const auto parsed = parse_candump_line("(5.328009) can0 43A#1C211771");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->frame.id(), 0x43Au);
  EXPECT_EQ(parsed->frame.length(), 4u);
  EXPECT_EQ(parsed->time, sim::SimTime{5'328'009'000});
}

TEST(Candump, ParseExtendedId) {
  const auto parsed = parse_candump_line("(1.000000) can0 1ABCDEF3#42");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->frame.is_extended());
  EXPECT_EQ(parsed->frame.id(), 0x1ABCDEF3u);
}

TEST(Candump, ParseMalformedReturnsNullopt) {
  EXPECT_FALSE(parse_candump_line("").has_value());
  EXPECT_FALSE(parse_candump_line("garbage").has_value());
  EXPECT_FALSE(parse_candump_line("(1.0) can0").has_value());          // no hash
  EXPECT_FALSE(parse_candump_line("(1.x) can0 123#11").has_value());   // bad stamp
  EXPECT_FALSE(parse_candump_line("(1.0) can0 XYZ#11").has_value());   // bad id
  EXPECT_FALSE(parse_candump_line("(1.0) can0 123#1").has_value());    // odd nibble
  EXPECT_FALSE(parse_candump_line("(1.0) can0 123#R9").has_value());   // dlc > 8
}

TEST(Candump, HostileTimestampsRejectedNotMisread) {
  // Regression: stamps used to be parsed as double and multiplied into an
  // int64 nanosecond count — "inf" or 20-digit seconds overflowed the cast
  // (UB) instead of failing.  Timestamps are now integer-parsed and bounded.
  EXPECT_FALSE(parse_candump_line("(inf.000000) can0 123#AA").has_value());
  EXPECT_FALSE(parse_candump_line("(1e308.000000) can0 123#AA").has_value());
  EXPECT_FALSE(parse_candump_line("(nan.nan) can0 123#AA").has_value());
  EXPECT_FALSE(parse_candump_line("(-5.000000) can0 123#AA").has_value());
  EXPECT_FALSE(parse_candump_line("(inf) can0 123#AA").has_value());
  EXPECT_FALSE(parse_candump_line("(1e308) can0 123#AA").has_value());
  EXPECT_FALSE(parse_candump_line("(nan) can0 123#AA").has_value());
  EXPECT_FALSE(parse_candump_line("(-0.5) can0 123#AA").has_value());
  EXPECT_FALSE(
      parse_candump_line("(99999999999999999999.000000) can0 123#AA").has_value());
  EXPECT_FALSE(
      parse_candump_line("(18446744073709551615.999999) can0 123#AA").has_value());
  // The largest representable stamp still parses.
  const auto last = parse_candump_line("(9223372034.999999) can0 123#AA");
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->time.count(), 9'223'372'034'999'999'000LL);
}

TEST(Candump, StreamRoundTripPreservesEverything) {
  util::Rng rng(0x72);
  std::vector<TimestampedFrame> frames;
  for (int i = 0; i < 200; ++i) {
    std::vector<std::uint8_t> payload(rng.next_below(9));
    rng.fill(payload);
    const bool extended = rng.next_bool(0.2);
    const std::uint32_t id = static_cast<std::uint32_t>(rng.next_below(
        extended ? can::kMaxExtendedId + 1ULL : can::kMaxStandardId + 1ULL));
    const auto frame = can::CanFrame::data(
        id, payload, extended ? can::IdFormat::kExtended : can::IdFormat::kStandard);
    frames.push_back({*frame, sim::SimTime{static_cast<std::int64_t>(i) * 1'000'000}});
  }
  std::stringstream stream;
  write_candump(stream, frames);
  std::vector<std::string> errors;
  const auto loaded = read_candump(stream, &errors);
  EXPECT_TRUE(errors.empty());
  ASSERT_EQ(loaded.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(loaded[i].frame, frames[i].frame) << i;
    EXPECT_EQ(loaded[i].time, frames[i].time) << i;
  }
}

TEST(Candump, ReadCollectsErrorsAndContinues) {
  std::stringstream stream("(1.000000) can0 100#11\nnot a line\n(2.000000) can0 200#22\n");
  std::vector<std::string> errors;
  const auto loaded = read_candump(stream, &errors);
  EXPECT_EQ(loaded.size(), 2u);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("line 2"), std::string::npos);
}

TEST(Candump, FdFrameRoundTrip) {
  std::vector<std::uint8_t> payload(16, 0x5A);
  const TimestampedFrame fd{*can::CanFrame::fd_data(0x123, payload, true),
                            sim::SimTime{1'500'000}};
  const auto line = to_candump_line(fd);
  const auto parsed = parse_candump_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->frame, fd.frame);
}

// ------------------------------------------------------------- replay -----

TEST(Replayer, PreservesRelativeTiming) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  CaptureTap tap(bus, "tap");
  transport::VirtualBusTransport injector(bus, "replayer");

  const std::vector<TimestampedFrame> trace = {
      entry(0x100, {1}, 1'000'000'000),  // t=1s in the original capture
      entry(0x200, {2}, 1'010'000'000),  // +10 ms
      entry(0x300, {3}, 1'050'000'000),  // +50 ms
  };
  Replayer replayer(scheduler, injector, trace);
  scheduler.run_for(std::chrono::milliseconds(5));  // start offset
  replayer.start();
  scheduler.run_for(std::chrono::milliseconds(100));
  ASSERT_EQ(tap.size(), 3u);
  // Relative gaps preserved (within one frame-time of bus serialisation).
  const auto gap1 = tap.frames()[1].time - tap.frames()[0].time;
  const auto gap2 = tap.frames()[2].time - tap.frames()[1].time;
  EXPECT_NEAR(sim::to_millis(gap1), 10.0, 1.0);
  EXPECT_NEAR(sim::to_millis(gap2), 40.0, 1.0);
  EXPECT_EQ(replayer.frames_sent(), 3u);
  EXPECT_FALSE(replayer.running());
}

TEST(Replayer, TimeScaleStretchesGaps) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  CaptureTap tap(bus, "tap");
  transport::VirtualBusTransport injector(bus, "replayer");
  const std::vector<TimestampedFrame> trace = {entry(0x1, {}, 0),
                                               entry(0x2, {}, 10'000'000)};
  ReplayOptions options;
  options.time_scale = 3.0;
  Replayer replayer(scheduler, injector, trace, options);
  replayer.start();
  scheduler.run_for(std::chrono::milliseconds(100));
  ASSERT_EQ(tap.size(), 2u);
  EXPECT_NEAR(sim::to_millis(tap.frames()[1].time - tap.frames()[0].time), 30.0, 1.0);
}

TEST(Replayer, RepeatsAndReportsCompletion) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  CaptureTap tap(bus, "tap");
  transport::VirtualBusTransport injector(bus, "replayer");
  const std::vector<TimestampedFrame> trace = {entry(0x1, {}, 0), entry(0x2, {}, 1'000'000)};
  ReplayOptions options;
  options.repeat = 3;
  Replayer replayer(scheduler, injector, trace, options);
  bool done = false;
  replayer.set_on_done([&] { done = true; });
  replayer.start();
  scheduler.run_for(std::chrono::seconds(1));
  EXPECT_EQ(replayer.frames_sent(), 6u);
  EXPECT_EQ(replayer.repetitions_completed(), 3u);
  EXPECT_TRUE(done);
  EXPECT_EQ(tap.size(), 6u);
}

TEST(Replayer, StopHaltsMidway) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  CaptureTap tap(bus, "tap");
  transport::VirtualBusTransport injector(bus, "replayer");
  std::vector<TimestampedFrame> trace;
  for (int i = 0; i < 10; ++i) trace.push_back(entry(0x1, {}, i * 10'000'000));
  Replayer replayer(scheduler, injector, trace);
  replayer.start();
  scheduler.run_for(std::chrono::milliseconds(25));
  replayer.stop();
  scheduler.run_for(std::chrono::milliseconds(200));
  EXPECT_LT(tap.size(), 10u);
  EXPECT_FALSE(replayer.running());
}

TEST(Replayer, EmptyTraceIsNoop) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  transport::VirtualBusTransport injector(bus, "replayer");
  Replayer replayer(scheduler, injector, {});
  replayer.start();
  EXPECT_FALSE(replayer.running());
}

}  // namespace
}  // namespace acf::trace
