#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "dbc/database.hpp"
#include "dbc/parser.hpp"
#include "dbc/signal.hpp"
#include "dbc/target_vehicle_db.hpp"
#include "util/rng.hpp"

namespace acf::dbc {
namespace {

SignalDef make_signal(std::uint16_t start, std::uint16_t length, ByteOrder order,
                      bool is_signed = false, double scale = 1.0, double offset = 0.0) {
  SignalDef sig;
  sig.name = "S";
  sig.start_bit = start;
  sig.bit_length = length;
  sig.byte_order = order;
  sig.is_signed = is_signed;
  sig.scale = scale;
  sig.offset = offset;
  return sig;
}

// ----------------------------------------------------------- raw pack -----

TEST(Signal, LittleEndianByteAligned) {
  const auto sig = make_signal(8, 16, ByteOrder::kLittleEndian);
  std::uint8_t payload[4] = {};
  ASSERT_TRUE(insert_raw(sig, 0xBEEF, payload));
  EXPECT_EQ(payload[1], 0xEF);  // LSB first
  EXPECT_EQ(payload[2], 0xBE);
  EXPECT_EQ(extract_raw(sig, payload).value(), 0xBEEFu);
}

TEST(Signal, LittleEndianUnaligned) {
  const auto sig = make_signal(4, 8, ByteOrder::kLittleEndian);
  std::uint8_t payload[2] = {};
  ASSERT_TRUE(insert_raw(sig, 0xA5, payload));
  EXPECT_EQ(payload[0], 0x50);
  EXPECT_EQ(payload[1], 0x0A);
  EXPECT_EQ(extract_raw(sig, payload).value(), 0xA5u);
}

TEST(Signal, BigEndianByteAligned) {
  // Motorola start bit 7, 16 bits: occupies bytes 0..1 MSB-first.
  const auto sig = make_signal(7, 16, ByteOrder::kBigEndian);
  std::uint8_t payload[2] = {};
  ASSERT_TRUE(insert_raw(sig, 0xBEEF, payload));
  EXPECT_EQ(payload[0], 0xBE);
  EXPECT_EQ(payload[1], 0xEF);
  EXPECT_EQ(extract_raw(sig, payload).value(), 0xBEEFu);
}

TEST(Signal, InsertDoesNotClobberNeighbours) {
  const auto low = make_signal(0, 4, ByteOrder::kLittleEndian);
  const auto high = make_signal(4, 4, ByteOrder::kLittleEndian);
  std::uint8_t payload[1] = {};
  insert_raw(low, 0xF, payload);
  insert_raw(high, 0x3, payload);
  EXPECT_EQ(payload[0], 0x3F);
  insert_raw(low, 0x0, payload);
  EXPECT_EQ(payload[0], 0x30);  // high nibble untouched
}

TEST(Signal, FitsBoundaryChecks) {
  EXPECT_TRUE(make_signal(56, 8, ByteOrder::kLittleEndian).fits(8));
  EXPECT_FALSE(make_signal(57, 8, ByteOrder::kLittleEndian).fits(8));
  EXPECT_FALSE(make_signal(0, 8, ByteOrder::kLittleEndian).fits(0));
  EXPECT_TRUE(make_signal(7, 16, ByteOrder::kBigEndian).fits(2));
  EXPECT_FALSE(make_signal(7, 17, ByteOrder::kBigEndian).fits(2));
}

TEST(Signal, ExtractFromShortPayloadReturnsNullopt) {
  const auto sig = make_signal(16, 8, ByteOrder::kLittleEndian);
  const std::uint8_t payload[2] = {1, 2};
  EXPECT_FALSE(extract_raw(sig, payload).has_value());
  EXPECT_FALSE(decode(sig, payload).has_value());
}

// Bit-by-bit reference codec, straight from the DBC definition: raw bit i
// (LSB = 0) of a little-endian signal sits at absolute bit start_bit + i; a
// big-endian signal's MSB sits at start_bit and each next bit is one lower
// in the byte, or bit 7 of the next byte after bit 0.
std::vector<std::size_t> reference_positions(const SignalDef& sig) {
  std::vector<std::size_t> positions(sig.bit_length);
  std::size_t pos = sig.start_bit;
  for (std::size_t k = 0; k < sig.bit_length; ++k) {
    if (sig.byte_order == ByteOrder::kLittleEndian) {
      positions[k] = sig.start_bit + k;
      continue;
    }
    positions[sig.bit_length - 1 - k] = pos;
    pos = pos % 8 == 0 ? pos + 15 : pos - 1;
  }
  return positions;
}

bool reference_fits(const std::vector<std::size_t>& positions, std::size_t bytes) {
  return std::all_of(positions.begin(), positions.end(),
                     [bytes](std::size_t pos) { return pos / 8 < bytes; });
}

std::optional<std::uint64_t> reference_extract(const SignalDef& sig,
                                               std::span<const std::uint8_t> payload) {
  const auto positions = reference_positions(sig);
  if (!reference_fits(positions, payload.size())) return std::nullopt;
  std::uint64_t raw = 0;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const std::uint64_t byte = payload[positions[i] / 8];
    raw |= ((byte >> (positions[i] % 8)) & 1u) << i;
  }
  return raw;
}

bool reference_insert(const SignalDef& sig, std::uint64_t raw, std::span<std::uint8_t> payload) {
  const auto positions = reference_positions(sig);
  if (!reference_fits(positions, payload.size())) return false;
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const auto mask = static_cast<std::uint8_t>(1u << (positions[i] % 8));
    std::uint8_t& byte = payload[positions[i] / 8];
    byte = static_cast<std::uint8_t>(((raw >> i) & 1u) != 0 ? byte | mask : byte & ~mask);
  }
  return true;
}

// The codec reads a little-endian signal as one integer and walks a
// big-endian one bit by bit; both must agree with the reference on random
// signals of 1..64 bits in classic and FD payloads of 1..64 bytes, fitting
// or not, and leave every bit outside the signal as it was.
TEST(Signal, WordPathMatchesBitWalk) {
  util::Rng rng(0x51C0DEC);
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t bytes = 1 + rng.next_below(64);
    const auto start = static_cast<std::uint16_t>(rng.next_below(bytes * 8 + 8));
    const auto length = static_cast<std::uint16_t>(1 + rng.next_below(64));
    const auto order = rng.next_bool() ? ByteOrder::kLittleEndian : ByteOrder::kBigEndian;
    const auto sig = make_signal(start, length, order);
    SCOPED_TRACE(::testing::Message() << "trial " << trial << ": start " << start << " length "
                                      << length << (order == ByteOrder::kLittleEndian
                                                        ? " LE" : " BE")
                                      << " in " << bytes << " bytes");

    std::vector<std::uint8_t> payload(bytes);
    rng.fill(payload);
    const auto positions = reference_positions(sig);
    ASSERT_EQ(sig.fits(bytes), reference_fits(positions, bytes));
    ASSERT_EQ(extract_raw(sig, payload), reference_extract(sig, payload));

    const std::uint64_t raw = rng.next_u64();  // insert truncates to the length
    std::vector<std::uint8_t> inserted = payload;
    std::vector<std::uint8_t> expected = payload;
    ASSERT_EQ(insert_raw(sig, raw, inserted), reference_insert(sig, raw, expected));
    ASSERT_EQ(inserted, expected);

    std::vector<std::uint8_t> signal_bits(bytes);
    if (reference_fits(positions, bytes)) {
      for (const std::size_t pos : positions) {
        signal_bits[pos / 8] = static_cast<std::uint8_t>(signal_bits[pos / 8] | 1u << (pos % 8));
      }
    }
    for (std::size_t i = 0; i < bytes; ++i) {
      ASSERT_EQ((inserted[i] ^ payload[i]) & ~signal_bits[i], 0) << "byte " << i;
    }
  }
}

// Property: roundtrip over a grid of widths, starts and byte orders.
class SignalRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, ByteOrder, bool>> {};

TEST_P(SignalRoundTrip, RawRoundTripsThroughPayload) {
  const auto [start, length, order, is_signed] = GetParam();
  const auto sig = make_signal(static_cast<std::uint16_t>(start),
                               static_cast<std::uint16_t>(length), order, is_signed);
  // 16 bytes hold every grid point, big-endian runs past byte 7 included.
  ASSERT_TRUE(sig.fits(16));
  util::Rng rng(static_cast<std::uint64_t>(start * 131 + length));
  for (int trial = 0; trial < 50; ++trial) {
    std::uint8_t payload[16] = {};
    rng.fill(payload);
    const std::uint64_t mask = length >= 64 ? ~0ULL : (1ULL << length) - 1;
    const std::uint64_t raw = rng.next_u64() & mask;
    ASSERT_TRUE(insert_raw(sig, raw, payload));
    EXPECT_EQ(extract_raw(sig, payload).value(), raw);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SignalRoundTrip,
    ::testing::Combine(::testing::Values(0, 3, 7, 8, 12, 16, 23, 32, 40),
                       ::testing::Values(1, 3, 8, 12, 16, 24, 32),
                       ::testing::Values(ByteOrder::kLittleEndian, ByteOrder::kBigEndian),
                       ::testing::Bool()));

// ----------------------------------------------------------- scaling ------

TEST(Signal, SignExtension) {
  EXPECT_EQ(sign_extend(0xFF, 8), -1);
  EXPECT_EQ(sign_extend(0x7F, 8), 127);
  EXPECT_EQ(sign_extend(0x8000, 16), -32768);
  EXPECT_EQ(sign_extend(1, 1), -1);
  EXPECT_EQ(sign_extend(0xFFFFFFFFFFFFFFFFULL, 64), -1);
}

TEST(Signal, PhysicalConversionUnsigned) {
  auto sig = make_signal(0, 16, ByteOrder::kLittleEndian, false, 0.25, 0.0);
  EXPECT_DOUBLE_EQ(sig.raw_to_physical(3200), 800.0);
  EXPECT_EQ(sig.physical_to_raw(800.0), 3200u);
}

TEST(Signal, PhysicalConversionSignedNegative) {
  auto sig = make_signal(0, 16, ByteOrder::kLittleEndian, true, 0.25, 0.0);
  // Raw 0xF000 = -4096 -> -1024 rpm: the Fig. 8 negative-RPM mechanism.
  EXPECT_DOUBLE_EQ(sig.raw_to_physical(0xF000), -1024.0);
  EXPECT_EQ(sig.physical_to_raw(-1024.0), 0xF000u);
}

TEST(Signal, PhysicalConversionWithOffset) {
  auto sig = make_signal(0, 8, ByteOrder::kLittleEndian, false, 1.0, -40.0);
  EXPECT_DOUBLE_EQ(sig.raw_to_physical(0), -40.0);
  EXPECT_DOUBLE_EQ(sig.raw_to_physical(255), 215.0);
  EXPECT_EQ(sig.physical_to_raw(20.0), 60u);
}

TEST(Signal, PhysicalToRawClampsAtLimits) {
  auto sig = make_signal(0, 8, ByteOrder::kLittleEndian, false, 1.0, 0.0);
  EXPECT_EQ(sig.physical_to_raw(1000.0), 255u);
  EXPECT_EQ(sig.physical_to_raw(-5.0), 0u);
  auto sgn = make_signal(0, 8, ByteOrder::kLittleEndian, true, 1.0, 0.0);
  EXPECT_EQ(sgn.physical_to_raw(200.0), 127u);
  EXPECT_EQ(sgn.physical_to_raw(-200.0), 0x80u);
}

TEST(Signal, PhysicalToRawMapsNanToZero) {
  auto sig = make_signal(0, 8, ByteOrder::kLittleEndian, false, 1.0, 0.0);
  EXPECT_EQ(sig.physical_to_raw(std::nan("")), 0u);
  EXPECT_EQ(sig.physical_to_raw(INFINITY), 255u);  // ±inf clamp to the ends
  EXPECT_EQ(sig.physical_to_raw(-INFINITY), 0u);
  sig.offset = INFINITY;  // inf - inf: a NaN the caller never passed
  EXPECT_EQ(sig.physical_to_raw(INFINITY), 0u);
}

TEST(Signal, PhysicalToRawClampsWideSignalsBelowTheirTop) {
  // Past 53 bits 2^n - 1 is not a double: the clamp stays below 2^n instead
  // of wrapping to raw 0 or overflowing the 64-bit conversion.
  const auto wide = make_signal(0, 64, ByteOrder::kLittleEndian);
  EXPECT_EQ(wide.physical_to_raw(1e30), 0xFFFFFFFFFFFFF800ULL);
  EXPECT_EQ(wide.physical_to_raw(wide.raw_to_physical(~0ULL)), 0xFFFFFFFFFFFFF800ULL);
  const auto wide_signed = make_signal(0, 64, ByteOrder::kLittleEndian, true);
  EXPECT_EQ(wide_signed.physical_to_raw(1e30), 0x7FFFFFFFFFFFFC00ULL);
  EXPECT_EQ(wide_signed.physical_to_raw(-1e30), 0x8000000000000000ULL);
  const auto sixty = make_signal(0, 60, ByteOrder::kLittleEndian);
  EXPECT_EQ(sixty.physical_to_raw(1e30), 0x0FFFFFFFFFFFFF80ULL);
  EXPECT_EQ(make_signal(0, 53, ByteOrder::kLittleEndian).physical_to_raw(1e30),
            (1ULL << 53) - 1);
}

TEST(Signal, DeclaredRangeCheck) {
  auto sig = make_signal(0, 16, ByteOrder::kLittleEndian);
  sig.min = 0;
  sig.max = 8000;
  EXPECT_TRUE(sig.in_declared_range(0));
  EXPECT_TRUE(sig.in_declared_range(8000));
  EXPECT_FALSE(sig.in_declared_range(-1));
  EXPECT_FALSE(sig.in_declared_range(8001));
  sig.min = sig.max = 0;  // undeclared: everything plausible
  EXPECT_TRUE(sig.in_declared_range(1e9));
}

// ------------------------------------------------------- message defs -----

TEST(MessageDef, EncodeDecodeRoundTrip) {
  const Database db = target_vehicle_database();
  const MessageDef* engine = db.by_id(kMsgEngineData);
  ASSERT_NE(engine, nullptr);
  const auto frame = engine->encode(
      {{"EngineRPM", 2400.0}, {"ThrottlePct", 40.0}, {"CoolantTempC", 92.0}});
  ASSERT_TRUE(frame.has_value());
  const auto values = engine->decode(*frame);
  EXPECT_DOUBLE_EQ(values.at("EngineRPM"), 2400.0);
  EXPECT_DOUBLE_EQ(values.at("ThrottlePct"), 40.0);
  EXPECT_DOUBLE_EQ(values.at("CoolantTempC"), 92.0);
  EXPECT_DOUBLE_EQ(values.at("FuelRate"), 0.0);  // unset encodes as raw zero
}

TEST(MessageDef, PositionalEncodeMatchesNamedEncode) {
  util::Rng rng(0xE7C0DE);
  for (const MessageDef& message : target_vehicle_database().messages()) {
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<double> values(message.signals.size());
      std::map<std::string, double> named;
      for (std::size_t i = 0; i < values.size(); ++i) {
        const SignalDef& sig = message.signals[i];
        // Mostly representable values, some far outside the raw range.
        values[i] = rng.next_bool(0.8) ? sig.raw_to_physical(rng.next_u64())
                                       : (rng.next_double() - 0.5) * 1e7;
        named.emplace(sig.name, values[i]);
      }
      const auto positional = message.encode(values);
      const auto by_name = message.encode(named);
      ASSERT_TRUE(positional.has_value()) << message.name;
      ASSERT_TRUE(by_name.has_value()) << message.name;
      EXPECT_EQ(*positional, *by_name) << message.name << " trial " << trial;
    }
  }
}

TEST(MessageDef, PositionalEncodeRejectsWrongCount) {
  const MessageDef* engine = target_vehicle_database().by_id(kMsgEngineData);
  ASSERT_NE(engine, nullptr);
  const std::vector<double> too_few(engine->signals.size() - 1, 0.0);
  const std::vector<double> too_many(engine->signals.size() + 1, 0.0);
  EXPECT_FALSE(engine->encode(too_few).has_value());
  EXPECT_FALSE(engine->encode(too_many).has_value());
}

TEST(MessageDef, EncodeUnknownSignalFails) {
  const Database db = target_vehicle_database();
  const MessageDef* engine = db.by_id(kMsgEngineData);
  EXPECT_FALSE(engine->encode({{"NoSuchSignal", 1.0}}).has_value());
}

TEST(MessageDef, DecodeShortFrameOmitsUnfittingSignals) {
  const Database db = target_vehicle_database();
  const MessageDef* engine = db.by_id(kMsgEngineData);
  const auto short_frame = can::CanFrame::data_std(kMsgEngineData, {0x10, 0x20});
  const auto values = engine->decode(short_frame);
  EXPECT_TRUE(values.contains("EngineRPM"));      // bits 0..15 fit
  EXPECT_FALSE(values.contains("CoolantTempC"));  // bits 24..31 do not
}

TEST(Database, LookupByIdAndName) {
  const Database db = target_vehicle_database();
  EXPECT_NE(db.by_id(kMsgBodyCommand), nullptr);
  EXPECT_EQ(db.by_id(0x7DF), nullptr);
  EXPECT_EQ(db.by_id(kMsgBodyCommand)->name, "BODY_COMMAND");
}

TEST(Database, AddReplacesSameId) {
  Database db;
  MessageDef m;
  m.id = 0x100;
  m.name = "A";
  db.add(m);
  m.name = "B";
  db.add(m);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.by_id(0x100)->name, "B");
}

TEST(Database, IdsSortedAscending) {
  const Database db = target_vehicle_database();
  const auto ids = db.ids();
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(ids.size(), db.size());
}

TEST(TargetVehicleDb, SignalsFitTheirMessages) {
  const Database db = target_vehicle_database();
  ASSERT_GE(db.size(), 9u);
  for (const auto& message : db.messages()) {
    for (const auto& sig : message.signals) {
      EXPECT_TRUE(sig.fits(message.dlc)) << message.name << "." << sig.name;
    }
  }
}

TEST(TargetVehicleDb, SignalPositionsNameTheirSignals) {
  struct Position {
    std::uint32_t message;
    std::size_t index;
    const char* name;
  };
  const Position positions[] = {
      {kMsgEngineData, EngineDataSignal::kEngineRpm, "EngineRPM"},
      {kMsgEngineData, EngineDataSignal::kThrottlePct, "ThrottlePct"},
      {kMsgEngineData, EngineDataSignal::kCoolantTempC, "CoolantTempC"},
      {kMsgEngineData, EngineDataSignal::kEngineRunning, "EngineRunning"},
      {kMsgEngineData, EngineDataSignal::kFuelRate, "FuelRate"},
      {kMsgVehicleSpeed, VehicleSpeedSignal::kSpeedKph, "SpeedKph"},
      {kMsgVehicleSpeed, VehicleSpeedSignal::kAccelPct, "AccelPct"},
      {kMsgVehicleSpeed, VehicleSpeedSignal::kBrakeActive, "BrakeActive"},
      {kMsgVehicleSpeed, VehicleSpeedSignal::kGearPosition, "GearPosition"},
      {kMsgVehicleSpeed, VehicleSpeedSignal::kSpeedValid, "SpeedValid"},
      {kMsgVehicleSpeed, VehicleSpeedSignal::kCruiseEngaged, "CruiseEngaged"},
      {kMsgWheelSpeeds, WheelSpeedsSignal::kWheelFl, "WheelFL"},
      {kMsgWheelSpeeds, WheelSpeedsSignal::kWheelFr, "WheelFR"},
      {kMsgWheelSpeeds, WheelSpeedsSignal::kWheelRl, "WheelRL"},
      {kMsgWheelSpeeds, WheelSpeedsSignal::kWheelRr, "WheelRR"},
      {kMsgPowertrainStatus, PowertrainStatusSignal::kOilTempC, "OilTempC"},
      {kMsgPowertrainStatus, PowertrainStatusSignal::kOilPressureKpa, "OilPressureKpa"},
      {kMsgPowertrainStatus, PowertrainStatusSignal::kIntakeTempC, "IntakeTempC"},
      {kMsgPowertrainStatus, PowertrainStatusSignal::kBatteryVolts, "BatteryVolts"},
      {kMsgPowertrainStatus, PowertrainStatusSignal::kFuelLevelPct, "FuelLevelPct"},
      {kMsgPowertrainStatus, PowertrainStatusSignal::kAmbientTempC, "AmbientTempC"},
      {kMsgPowertrainStatus, PowertrainStatusSignal::kReserved, "Reserved"},
      {kMsgClusterDisplay, ClusterDisplaySignal::kDisplayMode, "DisplayMode"},
      {kMsgClusterDisplay, ClusterDisplaySignal::kDisplayArg, "DisplayArg"},
      {kMsgClusterDisplay, ClusterDisplaySignal::kOdometerKm, "OdometerKm"},
      {kMsgClusterDisplay, ClusterDisplaySignal::kTripKm, "TripKm"},
      {kMsgTelltales, TelltalesSignal::kMilOn, "MilOn"},
      {kMsgTelltales, TelltalesSignal::kOilWarning, "OilWarning"},
      {kMsgTelltales, TelltalesSignal::kBatteryWarning, "BatteryWarning"},
      {kMsgTelltales, TelltalesSignal::kCoolantWarning, "CoolantWarning"},
      {kMsgTelltales, TelltalesSignal::kAbsWarning, "AbsWarning"},
      {kMsgTelltales, TelltalesSignal::kAirbagWarning, "AirbagWarning"},
      {kMsgTelltales, TelltalesSignal::kDtcCount, "DtcCount"},
      {kMsgBodyCommand, BodyCommandSignal::kCommand, "Command"},
      {kMsgBodyCommand, BodyCommandSignal::kSource, "Source"},
      {kMsgBodyCommand, BodyCommandSignal::kSessionId, "SessionId"},
      {kMsgBodyCommand, BodyCommandSignal::kSequenceNum, "SequenceNum"},
      {kMsgBodyAck, BodyAckSignal::kAckCommand, "AckCommand"},
      {kMsgBodyAck, BodyAckSignal::kAckResult, "AckResult"},
      {kMsgDoorStatus, DoorStatusSignal::kLockState, "LockState"},
      {kMsgDoorStatus, DoorStatusSignal::kDriverDoorOpen, "DriverDoorOpen"},
      {kMsgDoorStatus, DoorStatusSignal::kPassengerDoorOpen, "PassengerDoorOpen"},
      {kMsgDoorStatus, DoorStatusSignal::kInteriorLight, "InteriorLight"},
  };
  const Database& db = target_vehicle_database();
  for (const Position& position : positions) {
    const MessageDef* message = db.by_id(position.message);
    ASSERT_NE(message, nullptr) << position.name;
    ASSERT_LT(position.index, message->signals.size()) << position.name;
    EXPECT_EQ(message->signals[position.index].name, position.name);
  }

  const std::pair<std::uint32_t, std::size_t> counts[] = {
      {kMsgEngineData, EngineDataSignal::kCount},
      {kMsgVehicleSpeed, VehicleSpeedSignal::kCount},
      {kMsgWheelSpeeds, WheelSpeedsSignal::kCount},
      {kMsgPowertrainStatus, PowertrainStatusSignal::kCount},
      {kMsgClusterDisplay, ClusterDisplaySignal::kCount},
      {kMsgTelltales, TelltalesSignal::kCount},
      {kMsgBodyCommand, BodyCommandSignal::kCount},
      {kMsgBodyAck, BodyAckSignal::kCount},
      {kMsgDoorStatus, DoorStatusSignal::kCount},
  };
  const std::size_t expected[] = {5, 6, 4, 7, 4, 7, 4, 2, 4};
  ASSERT_EQ(std::size(counts), db.size());
  for (std::size_t i = 0; i < std::size(counts); ++i) {
    EXPECT_EQ(counts[i].second, expected[i]) << std::hex << counts[i].first;
    EXPECT_EQ(db.by_id(counts[i].first)->signals.size(), expected[i])
        << std::hex << counts[i].first;
  }
}

TEST(TargetVehicleDb, EveryCallReturnsTheOneSharedInstance) {
  // ECU models hold a reference to it, so building a world builds no database.
  EXPECT_EQ(&target_vehicle_database(), &target_vehicle_database());
}

TEST(TargetVehicleDb, BodyCommandMatchesPaperShape) {
  const Database db = target_vehicle_database();
  const MessageDef* cmd = db.by_id(kMsgBodyCommand);
  ASSERT_NE(cmd, nullptr);
  EXPECT_EQ(cmd->id, 0x215u);  // the paper's lock/unlock id (533 decimal)
  EXPECT_EQ(cmd->dlc, 7u);     // DLC 7 as in Fig. 13
}

// ------------------------------------------------------------ parser ------

TEST(Parser, ParsesMessageAndSignals) {
  const auto result = parse_dbc(R"(VERSION ""
BU_: ECM CLUSTER

BO_ 165 ENGINE_DATA: 8 ECM
 SG_ EngineRPM : 0|16@1- (0.25,0) [0|8000] "rpm" CLUSTER
 SG_ Throttle : 16|8@1+ (0.4,0) [0|100] "%" CLUSTER

BA_ "GenMsgCycleTime" BO_ 165 10;
)");
  EXPECT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(result.nodes, (std::vector<std::string>{"ECM", "CLUSTER"}));
  const MessageDef* msg = result.database.by_id(165);
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->name, "ENGINE_DATA");
  EXPECT_EQ(msg->dlc, 8u);
  EXPECT_EQ(msg->sender, "ECM");
  EXPECT_EQ(msg->cycle_time_ms, 10u);
  ASSERT_EQ(msg->signals.size(), 2u);
  const SignalDef& rpm = msg->signals[0];
  EXPECT_EQ(rpm.name, "EngineRPM");
  EXPECT_EQ(rpm.bit_length, 16u);
  EXPECT_TRUE(rpm.is_signed);
  EXPECT_EQ(rpm.byte_order, ByteOrder::kLittleEndian);
  EXPECT_DOUBLE_EQ(rpm.scale, 0.25);
  EXPECT_DOUBLE_EQ(rpm.max, 8000.0);
  EXPECT_EQ(rpm.unit, "rpm");
}

TEST(Parser, ExtendedIdBit31) {
  const auto result = parse_dbc("BO_ 2164261121 EXT_MSG: 8 X\n");
  const MessageDef* msg = result.database.by_id(2164261121u & 0x1FFFFFFFu);
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->format, can::IdFormat::kExtended);
}

TEST(Parser, BigEndianAndMultiplexedSignals) {
  const auto result = parse_dbc(R"(BO_ 291 M: 8 X
 SG_ Mode M : 7|8@0+ (1,0) [0|255] "" X
 SG_ Value m0 : 15|16@0- (1,0) [-100|100] "u" X
)");
  const MessageDef* msg = result.database.by_id(291);
  ASSERT_NE(msg, nullptr);
  ASSERT_EQ(msg->signals.size(), 2u);
  EXPECT_EQ(msg->signals[0].byte_order, ByteOrder::kBigEndian);
  EXPECT_TRUE(msg->signals[1].is_signed);
}

TEST(Parser, MalformedLinesReportedAndSkipped) {
  const auto result = parse_dbc(R"(BO_ nonsense NAME: 8 X
BO_ 100 GOOD: 8 X
 SG_ Bad : brokenlayout (1,0) [0|1] "" X
 SG_ Good : 0|8@1+ (1,0) [0|255] "" X
 SG_ TooBig : 32|64@1+ (1,0) [0|1] "" X
)");
  EXPECT_EQ(result.errors.size(), 3u);
  const MessageDef* msg = result.database.by_id(100);
  ASSERT_NE(msg, nullptr);
  ASSERT_EQ(msg->signals.size(), 1u);
  EXPECT_EQ(msg->signals[0].name, "Good");
}

TEST(Parser, RejectsNonFiniteNumbers) {
  // from_chars reads "nan" and "inf"; a signal line carrying one is
  // malformed like any other, and its finite neighbours still load.
  const auto result = parse_dbc(R"(BO_ 100 M: 8 X
 SG_ NanScale : 0|8@1+ (nan,0) [0|255] "" X
 SG_ InfOffset : 8|8@1+ (1,inf) [0|255] "" X
 SG_ NegInfMin : 16|8@1+ (1,0) [-inf|255] "" X
 SG_ NanMax : 24|8@1+ (1,0) [0|nan] "" X
 SG_ Good : 32|8@1+ (1,0) [0|255] "" X
)");
  EXPECT_EQ(result.errors.size(), 4u);
  const MessageDef* msg = result.database.by_id(100);
  ASSERT_NE(msg, nullptr);
  ASSERT_EQ(msg->signals.size(), 1u);
  EXPECT_EQ(msg->signals[0].name, "Good");
}

TEST(Parser, SignalOutsideMessageIsError) {
  const auto result = parse_dbc(" SG_ Orphan : 0|8@1+ (1,0) [0|1] \"\" X\n");
  EXPECT_EQ(result.errors.size(), 1u);
  EXPECT_EQ(result.database.size(), 0u);
}

TEST(Parser, RoundTripThroughText) {
  const Database original = target_vehicle_database();
  const auto result = parse_dbc(target_vehicle_dbc_text());
  EXPECT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors[0]);
  ASSERT_EQ(result.database.size(), original.size());
  for (const auto& message : original.messages()) {
    const MessageDef* loaded = result.database.by_id(message.id);
    ASSERT_NE(loaded, nullptr) << message.name;
    EXPECT_EQ(loaded->name, message.name);
    EXPECT_EQ(loaded->dlc, message.dlc);
    EXPECT_EQ(loaded->cycle_time_ms, message.cycle_time_ms);
    ASSERT_EQ(loaded->signals.size(), message.signals.size());
    for (std::size_t i = 0; i < message.signals.size(); ++i) {
      const SignalDef& a = message.signals[i];
      const SignalDef& b = loaded->signals[i];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.start_bit, b.start_bit);
      EXPECT_EQ(a.bit_length, b.bit_length);
      EXPECT_EQ(a.is_signed, b.is_signed);
      EXPECT_DOUBLE_EQ(a.scale, b.scale);
      EXPECT_DOUBLE_EQ(a.offset, b.offset);
    }
  }
}

}  // namespace
}  // namespace acf::dbc
