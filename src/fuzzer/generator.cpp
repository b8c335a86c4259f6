#include "fuzzer/generator.hpp"

#include <algorithm>

namespace acf::fuzzer {

// ---------------------------------------------------------------- Random --

RandomGenerator::RandomGenerator(FuzzConfig config)
    : config_(std::move(config)), rng_(config_.seed) {}

void RandomGenerator::rewind() {
  rng_ = util::Rng(config_.seed);
  generated_ = 0;
}

std::optional<can::CanFrame> RandomGenerator::next() {
  ++generated_;
  return generate();
}

can::CanFrame RandomGenerator::generate() {
  // id
  std::uint32_t id;
  if (!config_.id_set.empty()) {
    id = config_.id_set[static_cast<std::size_t>(rng_.next_below(config_.id_set.size()))];
  } else {
    id = static_cast<std::uint32_t>(rng_.next_in(config_.id_min, config_.id_max));
  }
  const auto format = config_.extended_ids ? can::IdFormat::kExtended
                                           : can::IdFormat::kStandard;

  // length
  const auto dlc = static_cast<std::uint8_t>(rng_.next_in(config_.dlc_min, config_.dlc_max));
  const std::size_t length = config_.fd_mode ? can::fd_dlc_to_length(dlc) : dlc;

  // payload bytes: positions beyond the 8 configured ranges (FD) are 0-255.
  std::array<std::uint8_t, can::kMaxFdPayload> bytes{};
  for (std::size_t i = 0; i < length; ++i) {
    const ByteRange range = i < config_.byte_ranges.size() ? config_.byte_ranges[i]
                                                           : ByteRange{};
    bytes[i] = static_cast<std::uint8_t>(rng_.next_in(range.lo, range.hi));
  }

  const std::span<const std::uint8_t> payload{bytes.data(), length};
  const auto frame = config_.fd_mode ? can::CanFrame::fd_data(id, payload, true, format)
                                     : can::CanFrame::data(id, payload, format);
  // The config invariants (id <= max for format, length valid) make this
  // always succeed; fall back to an empty frame defensively.
  return frame.value_or(can::CanFrame{});
}

can::CanFrame RandomGenerator::frame_at(const FuzzConfig& config, std::uint64_t index) {
  RandomGenerator replay(config);
  can::CanFrame frame;
  for (std::uint64_t i = 0; i <= index; ++i) {
    frame = *replay.next();
  }
  return frame;
}

// ----------------------------------------------------------------- Sweep --

SweepGenerator::SweepGenerator(FuzzConfig config) : config_(std::move(config)) { rewind(); }

void SweepGenerator::rewind() {
  id_index_ = 0;
  dlc_ = config_.dlc_min;
  for (std::size_t i = 0; i < bytes_.size(); ++i) {
    bytes_[i] = i < config_.byte_ranges.size() ? config_.byte_ranges[i].lo : 0;
  }
  done_ = config_.id_space() == 0 || config_.dlc_min > config_.dlc_max;
  primed_ = false;
  generated_ = 0;
}

std::optional<can::CanFrame> SweepGenerator::next() {
  if (done_) return std::nullopt;
  if (primed_ && !advance()) {
    done_ = true;
    return std::nullopt;
  }
  primed_ = true;
  ++generated_;

  const std::uint32_t id =
      config_.id_set.empty()
          ? config_.id_min + static_cast<std::uint32_t>(id_index_)
          : config_.id_set[id_index_];
  const std::span<const std::uint8_t> payload{bytes_.data(), dlc_};
  const auto format = config_.extended_ids ? can::IdFormat::kExtended
                                           : can::IdFormat::kStandard;
  return can::CanFrame::data(id, payload, format).value_or(can::CanFrame{});
}

bool SweepGenerator::advance() {
  // Increment payload bytes as a mixed-radix counter (byte 0 least
  // significant), then dlc, then id.
  for (std::size_t i = 0; i < dlc_; ++i) {
    const ByteRange range = i < config_.byte_ranges.size() ? config_.byte_ranges[i]
                                                           : ByteRange{};
    if (bytes_[i] < range.hi) {
      ++bytes_[i];
      return true;
    }
    bytes_[i] = range.lo;
  }
  if (dlc_ < config_.dlc_max) {
    ++dlc_;
    return true;
  }
  dlc_ = config_.dlc_min;
  ++id_index_;
  return id_index_ < config_.id_space();
}

// --------------------------------------------------------------- BitFlip --

BitFlipGenerator::BitFlipGenerator(can::CanFrame base, std::array<std::uint8_t, 8> payload_mask,
                                   bool include_id_bits)
    : base_(base) {
  if (include_id_bits) {
    for (std::uint8_t bit = 0; bit < 11; ++bit) {
      positions_.push_back({true, 0, bit});
    }
  }
  for (std::uint8_t byte = 0; byte < base_.length() && byte < 8; ++byte) {
    for (std::uint8_t bit = 0; bit < 8; ++bit) {
      if (static_cast<unsigned>(payload_mask[byte] >> bit) & 1u) {
        positions_.push_back({false, byte, bit});
      }
    }
  }
}

void BitFlipGenerator::rewind() {
  cursor_ = 0;
  generated_ = 0;
}

std::optional<can::CanFrame> BitFlipGenerator::next() {
  if (cursor_ >= positions_.size()) return std::nullopt;
  ++generated_;
  return apply(positions_[cursor_++]);
}

can::CanFrame BitFlipGenerator::apply(const BitRef& ref) const {
  if (ref.in_id) {
    const std::uint32_t id = (base_.id() ^ (1u << ref.bit)) & can::kMaxStandardId;
    return can::CanFrame::data(id, base_.payload(), base_.format()).value_or(base_);
  }
  std::vector<std::uint8_t> bytes(base_.payload().begin(), base_.payload().end());
  bytes[ref.byte] = static_cast<std::uint8_t>(bytes[ref.byte] ^ (1u << ref.bit));
  return can::CanFrame::data(base_.id(), bytes, base_.format()).value_or(base_);
}

}  // namespace acf::fuzzer
