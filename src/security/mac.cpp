#include "security/mac.hpp"

#include <bit>
#include <cstring>

namespace acf::security {

namespace {

inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

struct SipState {
  std::uint64_t v0, v1, v2, v3;

  void round() {
    v0 += v1;
    v1 = std::rotl(v1, 13);
    v1 ^= v0;
    v0 = std::rotl(v0, 32);
    v2 += v3;
    v3 = std::rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = std::rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = std::rotl(v1, 17);
    v1 ^= v2;
    v2 = std::rotl(v2, 32);
  }
};

}  // namespace

std::uint64_t siphash24(const Key128& key, std::span<const std::uint8_t> data) {
  const std::uint64_t k0 = load_le64(key.data());
  const std::uint64_t k1 = load_le64(key.data() + 8);
  SipState s{0x736f6d6570736575ULL ^ k0, 0x646f72616e646f6dULL ^ k1,
             0x6c7967656e657261ULL ^ k0, 0x7465646279746573ULL ^ k1};

  const std::size_t full_blocks = data.size() / 8;
  for (std::size_t block = 0; block < full_blocks; ++block) {
    const std::uint64_t m = load_le64(data.data() + block * 8);
    s.v3 ^= m;
    s.round();
    s.round();
    s.v0 ^= m;
  }
  // Final block: remaining bytes plus the length in the top byte.
  std::uint8_t tail[8] = {};
  const std::size_t remaining = data.size() % 8;
  // An empty span's data() may be null, which memcpy must never receive.
  if (remaining > 0) std::memcpy(tail, data.data() + full_blocks * 8, remaining);
  tail[7] = static_cast<std::uint8_t>(data.size() & 0xFF);
  const std::uint64_t m = load_le64(tail);
  s.v3 ^= m;
  s.round();
  s.round();
  s.v0 ^= m;

  s.v2 ^= 0xFF;
  s.round();
  s.round();
  s.round();
  s.round();
  return s.v0 ^ s.v1 ^ s.v2 ^ s.v3;
}

const char* to_string(VerifyResult result) noexcept {
  switch (result) {
    case VerifyResult::kOk: return "ok";
    case VerifyResult::kBadLength: return "bad-length";
    case VerifyResult::kBadMac: return "bad-mac";
    case VerifyResult::kReplayed: return "replayed";
  }
  return "?";
}

std::uint32_t FrameAuthenticator::compute_mac(std::uint32_t id, std::uint32_t counter,
                                              std::uint8_t command) const {
  std::uint8_t material[9];
  material[0] = static_cast<std::uint8_t>(id & 0xFF);
  material[1] = static_cast<std::uint8_t>((id >> 8) & 0xFF);
  material[2] = static_cast<std::uint8_t>((id >> 16) & 0xFF);
  material[3] = static_cast<std::uint8_t>((id >> 24) & 0xFF);
  material[4] = static_cast<std::uint8_t>(counter & 0xFF);
  material[5] = static_cast<std::uint8_t>((counter >> 8) & 0xFF);
  material[6] = static_cast<std::uint8_t>((counter >> 16) & 0xFF);
  material[7] = static_cast<std::uint8_t>((counter >> 24) & 0xFF);
  material[8] = command;
  return static_cast<std::uint32_t>(siphash24(key_, material) & 0xFFFFFFFF);
}

can::CanFrame FrameAuthenticator::sign_command(std::uint32_t id, std::uint8_t command) {
  ++tx_counter_;
  const std::uint32_t mac = compute_mac(id, tx_counter_, command);
  const std::uint8_t bytes[7] = {
      command,
      static_cast<std::uint8_t>(tx_counter_ & 0xFF),
      static_cast<std::uint8_t>(mac & 0xFF),
      static_cast<std::uint8_t>((mac >> 8) & 0xFF),
      static_cast<std::uint8_t>((mac >> 16) & 0xFF),
      static_cast<std::uint8_t>((mac >> 24) & 0xFF),
      0x00,
  };
  ++stats_.signed_frames;
  return can::CanFrame::data(id, bytes).value_or(can::CanFrame{});
}

VerifyResult FrameAuthenticator::verify_command(const can::CanFrame& frame) {
  if (frame.length() != 7) {
    ++stats_.bad_length;
    return VerifyResult::kBadLength;
  }
  const auto payload = frame.payload();
  const std::uint8_t command = payload[0];
  const std::uint8_t counter_low = payload[1];
  const std::uint32_t mac = static_cast<std::uint32_t>(payload[2]) |
                            (static_cast<std::uint32_t>(payload[3]) << 8) |
                            (static_cast<std::uint32_t>(payload[4]) << 16) |
                            (static_cast<std::uint32_t>(payload[5]) << 24);

  // Reconstruct the full 32-bit counter from its low byte within the
  // acceptance window ahead of the last accepted value.
  for (std::uint32_t step = 1; step <= window_; ++step) {
    const std::uint32_t candidate = rx_counter_ + step;
    if (static_cast<std::uint8_t>(candidate & 0xFF) != counter_low) continue;
    if (compute_mac(frame.id(), candidate, command) == mac) {
      rx_counter_ = candidate;
      last_command_ = command;
      ++stats_.accepted;
      return VerifyResult::kOk;
    }
  }
  // Distinguish replay (a previously valid counter) from forgery, for
  // diagnostics: check a window behind as well.
  for (std::uint32_t step = 0; step <= window_ && step <= rx_counter_; ++step) {
    const std::uint32_t candidate = rx_counter_ - step;
    if (static_cast<std::uint8_t>(candidate & 0xFF) != counter_low) continue;
    if (compute_mac(frame.id(), candidate, command) == mac) {
      ++stats_.replayed;
      return VerifyResult::kReplayed;
    }
  }
  ++stats_.bad_mac;
  return VerifyResult::kBadMac;
}

}  // namespace acf::security
