// Property tests for the classic-CAN wire codec: randomized round trips
// (logical and wire images reproduce id / DLC / payload / flags exactly) and
// a cross-check of the table-driven wire-length fast path against the
// bitwise reference (encode_logical + stuff), on random frames and on
// structured ones (uniform fills, extreme ids, CRCs ending in long runs),
// which the frame-timing model and therefore every Table V result depend on.
#include <gtest/gtest.h>

#include <vector>

#include "can/bitstream.hpp"
#include "can/wire_codec.hpp"
#include "util/rng.hpp"

namespace acf::can {
namespace {

/// Uniformly random classic frame: standard/extended id, data/remote,
/// payload length 0..8 with random bytes.
CanFrame random_classic_frame(util::Rng& rng) {
  const bool extended = rng.next_bool(0.3);
  const IdFormat format = extended ? IdFormat::kExtended : IdFormat::kStandard;
  const auto id = static_cast<std::uint32_t>(
      rng.next_below(extended ? kMaxExtendedId + 1ULL : kMaxStandardId + 1ULL));
  if (rng.next_bool(0.15)) {
    return *CanFrame::remote(id, static_cast<std::uint8_t>(rng.next_below(9)), format);
  }
  std::vector<std::uint8_t> payload(rng.next_below(9));
  rng.fill(payload);
  return *CanFrame::data(id, payload, format);
}

TEST(CodecProperty, LogicalRoundTripPreservesEveryField) {
  util::Rng rng(0x10D1C);
  for (int i = 0; i < 2000; ++i) {
    const CanFrame frame = random_classic_frame(rng);
    const BitVec logical = encode_logical(frame);
    ASSERT_FALSE(logical.empty()) << frame.to_string();
    const auto decoded = decode_logical(logical);
    ASSERT_TRUE(decoded.has_value()) << frame.to_string();
    EXPECT_EQ(decoded->id(), frame.id());
    EXPECT_EQ(decoded->dlc(), frame.dlc());
    EXPECT_EQ(decoded->is_extended(), frame.is_extended());
    EXPECT_EQ(decoded->is_remote(), frame.is_remote());
    EXPECT_TRUE(*decoded == frame) << frame.to_string();
  }
}

TEST(CodecProperty, WireRoundTripPreservesEveryField) {
  util::Rng rng(0x20D2C);
  for (int i = 0; i < 2000; ++i) {
    const CanFrame frame = random_classic_frame(rng);
    const BitVec wire = encode_wire(frame);
    ASSERT_FALSE(wire.empty()) << frame.to_string();
    const auto decoded = decode_wire(wire);
    ASSERT_TRUE(decoded.has_value()) << frame.to_string();
    EXPECT_EQ(decoded->id(), frame.id());
    EXPECT_EQ(decoded->dlc(), frame.dlc());
    EXPECT_EQ(decoded->is_extended(), frame.is_extended());
    EXPECT_EQ(decoded->is_remote(), frame.is_remote());
    EXPECT_TRUE(*decoded == frame) << frame.to_string();
  }
}

TEST(CodecProperty, CorruptedWireImageNeverDecodesToADifferentFrame) {
  // Flipping any single bit in the stuffed region must either be rejected
  // (stuffing/CRC/form violation) or — never — decode to the wrong frame.
  util::Rng rng(0x30D3C);
  for (int i = 0; i < 200; ++i) {
    const CanFrame frame = random_classic_frame(rng);
    BitVec wire = encode_wire(frame);
    const std::size_t flip = static_cast<std::size_t>(rng.next_below(wire.size()));
    wire[flip] ^= 1;
    const auto decoded = decode_wire(wire);
    if (decoded.has_value()) {
      EXPECT_TRUE(*decoded == frame) << frame.to_string() << " flip@" << flip;
    }
  }
}

TEST(CodecProperty, TableDrivenWireLengthMatchesBitwiseReference) {
  // wire_bit_count's classic path runs byte-step CRC15 and stuffing tables;
  // the reference length is the materialised image: stuffed SOF..CRC bits
  // plus the 10-bit fixed tail plus the 3-bit interframe space.
  util::Rng rng(0x40D4C);
  constexpr std::size_t kTailBits = 10;        // CRC delim + ACK slot + delim + EOF
  constexpr std::size_t kInterframeSpace = 3;  // intermission
  for (int i = 0; i < 200000; ++i) {
    const CanFrame frame = random_classic_frame(rng);
    const BitVec logical = encode_logical(frame);
    const std::size_t reference =
        logical.size() + count_stuff_bits(logical) + kTailBits + kInterframeSpace;
    EXPECT_EQ(wire_bit_count(frame), reference) << frame.to_string();
    // And the fully materialised image agrees with the counter.
    EXPECT_EQ(wire_bit_count(frame), encode_wire(frame).size() + kInterframeSpace)
        << frame.to_string();
  }
}

/// The bitwise reference length: the materialised SOF..CRC image, its stuff
/// bits, the 10-bit fixed tail and the 3-bit interframe space.
std::size_t reference_wire_bits(const CanFrame& frame) {
  const BitVec logical = encode_logical(frame);
  return logical.size() + count_stuff_bits(logical) + 10 + 3;
}

/// Length of the run of equal bits that ends a logical image (its CRC).
int trailing_run(const BitVec& bits) {
  int run = 1;
  for (std::size_t i = bits.size() - 1; i > 0 && bits[i - 1] == bits[i]; --i) ++run;
  return run;
}

TEST(CodecProperty, ClassicWireLengthMatchesBitwiseReferenceOnStructuredFrames) {
  // The classic fast path pads the header in front to whole bytes and ends
  // the CRC with one pad bit.  Uniform ids, DLCs and fill bytes put long
  // runs at every border that padding touches.
  const std::uint8_t fills[] = {0x00, 0xFF, 0x55, 0xAA, 0x0F, 0xF0, 0x1F, 0xE0};
  for (const IdFormat format : {IdFormat::kStandard, IdFormat::kExtended}) {
    const bool extended = format == IdFormat::kExtended;
    const std::uint32_t ids[] = {0, extended ? kMaxExtendedId : kMaxStandardId,
                                 extended ? 0x15555555u : 0x555u,
                                 extended ? 0x0AAAAAAAu : 0x2AAu};
    for (const std::uint32_t id : ids) {
      for (std::uint8_t dlc = 0; dlc <= 8; ++dlc) {
        const CanFrame remote = *CanFrame::remote(id, dlc, format);
        EXPECT_EQ(wire_bit_count(remote), reference_wire_bits(remote)) << remote.to_string();
        for (const std::uint8_t fill : fills) {
          const std::vector<std::uint8_t> payload(dlc, fill);
          const CanFrame data = *CanFrame::data(id, payload, format);
          EXPECT_EQ(wire_bit_count(data), reference_wire_bits(data)) << data.to_string();
        }
      }
    }
  }

  // Frames whose CRC ends in a run of exactly four equal bits, where a pad
  // bit equal to the last CRC bit would complete a run of five, and in a
  // run of five or more, where a stuff bit can follow the CRC.
  util::Rng rng(0x60D6C);
  int run_of_four = 0;
  int run_of_five_or_more = 0;
  while (run_of_four < 256 || run_of_five_or_more < 256) {
    const CanFrame frame = random_classic_frame(rng);
    const int run = trailing_run(encode_logical(frame));
    if (run < 4) continue;
    int& found = run == 4 ? run_of_four : run_of_five_or_more;
    if (found == 256) continue;
    ++found;
    EXPECT_EQ(wire_bit_count(frame), reference_wire_bits(frame))
        << frame.to_string() << " (CRC ends in a run of " << run << ")";
  }
}

TEST(CodecProperty, WorstCaseBoundsEveryRandomFrame) {
  util::Rng rng(0x50D5C);
  for (int i = 0; i < 2000; ++i) {
    const CanFrame frame = random_classic_frame(rng);
    EXPECT_LE(wire_bit_count(frame),
              worst_case_bit_count(frame.payload().size(), frame.format()))
        << frame.to_string();
  }
}

}  // namespace
}  // namespace acf::can
