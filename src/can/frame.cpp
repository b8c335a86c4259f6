#include "can/frame.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/hex.hpp"

namespace acf::can {

namespace {
// FD DLC code points 9..15 map to these lengths.
constexpr std::array<std::size_t, 7> kFdLengths = {12, 16, 20, 24, 32, 48, 64};
}  // namespace

std::size_t fd_dlc_to_length(std::uint8_t dlc) noexcept {
  if (dlc <= 8) return dlc;
  if (dlc <= 15) return kFdLengths[static_cast<std::size_t>(dlc) - 9];
  return 0;
}

std::optional<std::uint8_t> fd_length_to_dlc(std::size_t length) noexcept {
  if (length <= 8) return static_cast<std::uint8_t>(length);
  for (std::size_t i = 0; i < kFdLengths.size(); ++i) {
    if (length <= kFdLengths[i]) return static_cast<std::uint8_t>(9 + i);
  }
  return std::nullopt;
}

bool is_valid_fd_length(std::size_t length) noexcept {
  if (length <= 8) return true;
  return std::find(kFdLengths.begin(), kFdLengths.end(), length) != kFdLengths.end();
}

std::optional<CanFrame> CanFrame::remote(std::uint32_t id, std::uint8_t dlc, IdFormat format) {
  const std::uint32_t max_id = (format == IdFormat::kStandard) ? kMaxStandardId : kMaxExtendedId;
  if (id > max_id || dlc > kMaxClassicPayload) return std::nullopt;
  CanFrame f;
  f.id_ = id;
  f.format_ = format;
  f.remote_ = true;
  f.length_ = dlc;  // requested length; no data carried
  return f;
}

std::optional<CanFrame> CanFrame::fd_data(std::uint32_t id, std::span<const std::uint8_t> payload,
                                          bool brs, IdFormat format) {
  const std::uint32_t max_id = (format == IdFormat::kStandard) ? kMaxStandardId : kMaxExtendedId;
  if (id > max_id || !is_valid_fd_length(payload.size())) return std::nullopt;
  CanFrame f;
  f.id_ = id;
  f.format_ = format;
  f.fd_ = true;
  f.brs_ = brs;
  f.length_ = payload.size();
  std::copy(payload.begin(), payload.end(), f.data_.begin());
  return f;
}

CanFrame CanFrame::data_std(std::uint32_t id, std::initializer_list<std::uint8_t> payload) {
  auto frame = data(id, {payload.begin(), payload.size()});
  if (!frame) std::abort();  // programming error in a test/example literal
  return *frame;
}

std::uint64_t CanFrame::arbitration_rank() const noexcept {
  // Rank by the dominant/recessive sequence of the arbitration field.
  // Base frames: 11-bit id then dominant RTR(data)/recessive RTR(remote).
  // Extended frames: same 11 bits, then recessive SRR+IDE, 18 more id bits,
  // then RTR.  Building the rank as (base11, ide, rest) preserves wire order.
  std::uint64_t rank = 0;
  if (format_ == IdFormat::kStandard) {
    rank = static_cast<std::uint64_t>(id_) << 21;  // base id, top
    rank |= static_cast<std::uint64_t>(remote_ ? 1 : 0) << 20;
    // IDE dominant (0) for base frames: nothing to add.
  } else {
    rank = static_cast<std::uint64_t>(id_ >> 18) << 21;           // base 11 bits
    rank |= 1ULL << 20;                                           // SRR recessive
    rank |= 1ULL << 19;                                           // IDE recessive
    rank |= static_cast<std::uint64_t>(id_ & 0x3FFFF) << 1;       // extension
    rank |= static_cast<std::uint64_t>(remote_ ? 1 : 0);
  }
  return rank;
}

std::string CanFrame::to_string() const {
  std::string out = util::hex_u32(id_, is_extended() ? 8 : 3);
  out += '#';
  if (remote_) {
    out += 'R';
    out += static_cast<char>('0' + length_);
  } else {
    if (fd_) out += brs_ ? "#F" : "#f";
    out += util::hex_bytes(payload(), '\0');
  }
  return out;
}

bool operator==(const CanFrame& a, const CanFrame& b) noexcept {
  if (a.id_ != b.id_ || a.format_ != b.format_ || a.remote_ != b.remote_ || a.fd_ != b.fd_ ||
      a.brs_ != b.brs_ || a.length_ != b.length_) {
    return false;
  }
  return std::equal(a.data_.begin(), a.data_.begin() + static_cast<std::ptrdiff_t>(a.length_),
                    b.data_.begin());
}

}  // namespace acf::can
