#include "fuzzer/generator.hpp"

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

std::optional<can::CanFrame> RandomGenerator::generate() {
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
  // Only the first `length` are read.
  std::array<std::uint8_t, can::kMaxFdPayload> bytes;
  for (std::size_t i = 0; i < length; ++i) {
    const ByteRange range = i < config_.byte_ranges.size() ? config_.byte_ranges[i]
                                                           : ByteRange{};
    bytes[i] = static_cast<std::uint8_t>(rng_.next_in(range.lo, range.hi));
  }

  const std::span<const std::uint8_t> payload{bytes.data(), length};
  std::optional<can::CanFrame> frame = config_.fd_mode
                                           ? can::CanFrame::fd_data(id, payload, true, format)
                                           : can::CanFrame::data(id, payload, format);
  // The config invariants (id <= max for format, length valid) make this
  // always succeed; fall back to an empty frame defensively.
  if (!frame) frame.emplace();
  return frame;
}

can::CanFrame RandomGenerator::frame_at(const FuzzConfig& config, std::uint64_t index) {
  RandomGenerator replay(config);
  can::CanFrame frame;
  for (std::uint64_t i = 0; i <= index; ++i) {
    frame = *replay.next();
  }
  return frame;
}

}  // namespace acf::fuzzer
