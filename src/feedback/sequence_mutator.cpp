#include "feedback/sequence_mutator.hpp"

#include <algorithm>
#include <iterator>

#include "dbc/target_vehicle_db.hpp"
#include "fuzzer/mutation_core.hpp"
#include "fuzzer/mutator.hpp"

namespace acf::feedback {

namespace {

/// Protocol constants blind byte mutation rarely lands on: the body command
/// codes (0x10/0x20), the 0x5F/0x01 prefix bytes of the legitimate command
/// frame, and the usual boundary values.
constexpr std::uint8_t kInterestingBytes[] = {0x00, 0x01, 0x10, 0x20, 0x40,
                                              0x5F, 0x7F, 0x80, 0xFF};

/// The id-snap operator's dictionary: the target vehicle's message ids
/// (dbc/target_vehicle_db.hpp).
constexpr std::uint32_t kTargetVehicleIds[] = {
    dbc::kMsgEngineData,     dbc::kMsgVehicleSpeed,   dbc::kMsgWheelSpeeds,
    dbc::kMsgPowertrainStatus, dbc::kMsgClusterDisplay, dbc::kMsgTelltales,
    dbc::kMsgBodyCommand,    dbc::kMsgBodyAck,        dbc::kMsgDoorStatus,
    dbc::kUdsEngineRequest,  dbc::kUdsClusterRequest, dbc::kUdsBcmRequest};

/// Radius for the id-jitter operator.
constexpr std::uint32_t kIdJitterRadius = 16;

std::vector<std::uint8_t> payload_of(const can::CanFrame& frame) {
  return {frame.payload().begin(), frame.payload().end()};
}

can::CanFrame rebuild(const can::CanFrame& frame, std::uint32_t id,
                      std::span<const std::uint8_t> payload) {
  return can::CanFrame::data(id, payload, frame.format()).value_or(frame);
}

}  // namespace

can::CanFrame SequenceMutator::random_frame(util::Rng& rng) const {
  const auto id = static_cast<std::uint32_t>(rng.next_below(can::kMaxStandardId + 1));
  const auto len = static_cast<std::size_t>(rng.next_below(can::kMaxClassicPayload + 1));
  std::array<std::uint8_t, can::kMaxClassicPayload> payload{};
  rng.fill(std::span(payload.data(), len));
  return can::CanFrame::data(id, std::span(payload.data(), len)).value_or(can::CanFrame{});
}

std::vector<can::CanFrame> SequenceMutator::fresh(util::Rng& rng) const {
  const auto count = static_cast<std::size_t>(1 + rng.next_below(4));
  std::vector<can::CanFrame> sequence;
  sequence.reserve(count);
  for (std::size_t i = 0; i < count; ++i) sequence.push_back(random_frame(rng));
  return sequence;
}

// Operator table (frozen order — the Rng stream is part of the determinism
// contract, like mutcore::mutate_once's):
//   0 payload bit flip      1 payload byte overwrite  2 interesting byte
//   3 id dictionary snap    4 id jitter               5 payload resize
//   6 duplicate frame       7 erase frame             8 splice from donor
void SequenceMutator::mutate_once(util::Rng& rng, std::vector<can::CanFrame>& sequence,
                                  const std::vector<can::CanFrame>* donor) const {
  const std::uint64_t op = rng.next_below(9);
  const std::size_t at = static_cast<std::size_t>(rng.next_below(sequence.size()));
  can::CanFrame& frame = sequence[at];
  switch (op) {
    case 0: {
      auto bytes = payload_of(frame);
      fuzzer::mutcore::flip_bit(rng, bytes);
      frame = rebuild(frame, frame.id(), bytes);
      break;
    }
    case 1: {
      auto bytes = payload_of(frame);
      fuzzer::mutcore::overwrite_byte(rng, bytes);
      frame = rebuild(frame, frame.id(), bytes);
      break;
    }
    case 2: {
      auto bytes = payload_of(frame);
      if (!bytes.empty()) {
        const auto pos = static_cast<std::size_t>(rng.next_below(bytes.size()));
        bytes[pos] = kInterestingBytes[rng.next_below(sizeof kInterestingBytes)];
        frame = rebuild(frame, frame.id(), bytes);
      }
      break;
    }
    case 3: {
      const std::uint32_t id = kTargetVehicleIds[rng.next_below(std::size(kTargetVehicleIds))];
      frame = rebuild(frame, id, frame.payload());
      break;
    }
    case 4:
      frame = fuzzer::mutations::jitter_id(frame, rng, kIdJitterRadius);
      break;
    case 5: {
      auto bytes = payload_of(frame);
      const auto new_len =
          static_cast<std::size_t>(rng.next_below(can::kMaxClassicPayload + 1));
      while (bytes.size() < new_len) bytes.push_back(rng.next_byte());
      bytes.resize(new_len);
      frame = rebuild(frame, frame.id(), bytes);
      break;
    }
    case 6:
      if (sequence.size() < kMaxFrames) {
        sequence.insert(sequence.begin() + static_cast<std::ptrdiff_t>(at), sequence[at]);
      }
      break;
    case 7:
      if (sequence.size() > 1) {
        sequence.erase(sequence.begin() + static_cast<std::ptrdiff_t>(at));
      }
      break;
    default: {
      if (donor != nullptr && !donor->empty()) {
        // Keep a prefix of this sequence, graft a suffix of the donor.
        const auto keep = static_cast<std::size_t>(rng.next_below(sequence.size() + 1));
        const auto from = static_cast<std::size_t>(rng.next_below(donor->size()));
        sequence.resize(keep);
        sequence.insert(sequence.end(), donor->begin() + static_cast<std::ptrdiff_t>(from),
                        donor->end());
        if (sequence.size() > kMaxFrames) sequence.resize(kMaxFrames);
      } else {
        if (sequence.size() < kMaxFrames) {
          sequence.push_back(random_frame(rng));
        }
      }
      break;
    }
  }
}

void SequenceMutator::mutate(util::Rng& rng, std::vector<can::CanFrame>& sequence,
                             const std::vector<can::CanFrame>* donor) const {
  if (sequence.empty()) sequence.push_back(random_frame(rng));
  if (sequence.size() > kMaxFrames) sequence.resize(kMaxFrames);
  const std::uint64_t rounds = 1 + rng.next_below(4);
  for (std::uint64_t i = 0; i < rounds; ++i) mutate_once(rng, sequence, donor);
}

}  // namespace acf::feedback
