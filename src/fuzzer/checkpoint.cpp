#include "fuzzer/checkpoint.hpp"

#include <array>

#include "util/bytes.hpp"
#include "util/file.hpp"

namespace acf::fuzzer {

using util::ByteReader;
using util::ByteWriter;

namespace {

constexpr std::uint32_t kMagic = 0x4143464B;  // "ACFK"

constexpr std::uint8_t kFrameExtended = 0x01;
constexpr std::uint8_t kFrameRemote = 0x02;
constexpr std::uint8_t kFrameFd = 0x04;
constexpr std::uint8_t kFrameBrs = 0x08;

// Minimum encoded sizes, used to validate declared counts against the bytes
// actually present BEFORE any allocation (hostile counts fail closed).
constexpr std::size_t kMinFrameBytes = 8 + 4 + 1 + 1;  // time + id + flags + length
constexpr std::size_t kMinFindingBytes = 1 + 8 + 4 + 8 + 8 + 4 + 4;

// Free text (generator names, oracle details) is bounded only by the bytes
// left, so any string a campaign produced reads back unchanged.
std::string read_text(ByteReader& in) { return in.str(in.remaining()); }

void write_frames(ByteWriter& out, const std::vector<trace::TimestampedFrame>& frames) {
  out.u32(static_cast<std::uint32_t>(frames.size()));
  for (const trace::TimestampedFrame& entry : frames) {
    const can::CanFrame& frame = entry.frame;
    out.i64(entry.time.count());
    out.u32(frame.id());
    out.u8(static_cast<std::uint8_t>((frame.is_extended() ? kFrameExtended : 0) |
                                     (frame.is_remote() ? kFrameRemote : 0) |
                                     (frame.is_fd() ? kFrameFd : 0) |
                                     (frame.brs() ? kFrameBrs : 0)));
    out.u8(static_cast<std::uint8_t>(frame.length()));  // remote: requested DLC
    out.raw(frame.payload());
  }
}

// One frame, accepted only in the canonical form write_frames produces:
// known flag bits, BRS only on FD, no FD remote frames, and a length the
// frame kind allows (the named constructors enforce the last).
std::optional<trace::TimestampedFrame> read_frame(ByteReader& in) {
  const sim::SimTime time{in.i64()};
  const std::uint32_t id = in.u32();
  const std::uint8_t flags = in.u8();
  const std::uint8_t length = in.u8();
  const bool remote = (flags & kFrameRemote) != 0;
  const bool fd = (flags & kFrameFd) != 0;
  if (!in.ok() || (flags & ~(kFrameExtended | kFrameRemote | kFrameFd | kFrameBrs)) != 0 ||
      (remote && fd) || ((flags & kFrameBrs) != 0 && !fd)) {
    return std::nullopt;
  }
  const auto format =
      (flags & kFrameExtended) != 0 ? can::IdFormat::kExtended : can::IdFormat::kStandard;
  std::optional<can::CanFrame> frame;
  if (remote) {
    frame = can::CanFrame::remote(id, length, format);
  } else {
    if (length > can::kMaxFdPayload) return std::nullopt;
    std::array<std::uint8_t, can::kMaxFdPayload> payload{};
    for (std::size_t i = 0; i < length; ++i) payload[i] = in.u8();
    const std::span<const std::uint8_t> bytes(payload.data(), length);
    frame = fd ? can::CanFrame::fd_data(id, bytes, (flags & kFrameBrs) != 0, format)
               : can::CanFrame::data(id, bytes, format);
  }
  if (!frame) return std::nullopt;
  return trace::TimestampedFrame{*frame, time};
}

bool read_frames(ByteReader& in, std::vector<trace::TimestampedFrame>& frames) {
  const std::uint32_t count = in.count(kMinFrameBytes);
  frames.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto entry = read_frame(in);
    if (!entry) return false;
    frames.push_back(*entry);
  }
  return in.ok();
}

}  // namespace

std::vector<std::uint8_t> CampaignCheckpoint::encode() const {
  ByteWriter out;
  out.u32(kMagic);
  out.u32(kVersion);
  out.u64(frames_sent);
  out.u64(send_failures);
  out.i64(elapsed.count());
  out.str(generator_name);
  out.u32(static_cast<std::uint32_t>(generator_state.size()));
  for (const std::uint64_t word : generator_state) out.u64(word);
  out.u32(static_cast<std::uint32_t>(findings.size()));
  for (const Finding& finding : findings) {
    out.u8(static_cast<std::uint8_t>(finding.observation.verdict));
    out.i64(finding.observation.time.count());
    out.str(finding.observation.detail);
    out.u64(finding.frames_sent);
    out.u64(finding.seed);
    out.str(finding.generator);
    write_frames(out, finding.recent_frames);
  }
  write_frames(out, recent_frames);
  return out.take();
}

std::optional<CampaignCheckpoint> CampaignCheckpoint::decode(
    std::span<const std::uint8_t> bytes) {
  ByteReader in(bytes);
  if (in.u32() != kMagic || in.u32() != kVersion || !in.ok()) return std::nullopt;
  CampaignCheckpoint checkpoint;
  checkpoint.frames_sent = in.u64();
  checkpoint.send_failures = in.u64();
  checkpoint.elapsed = sim::Duration{in.i64()};
  checkpoint.generator_name = read_text(in);
  checkpoint.generator_state.resize(in.count(8));
  for (std::uint64_t& word : checkpoint.generator_state) word = in.u64();
  checkpoint.findings.resize(in.count(kMinFindingBytes));
  for (Finding& finding : checkpoint.findings) {
    const std::uint8_t verdict = in.u8();
    if (!in.ok() || verdict > static_cast<std::uint8_t>(oracle::Verdict::kFailure)) {
      return std::nullopt;
    }
    finding.observation.verdict = static_cast<oracle::Verdict>(verdict);
    finding.observation.time = sim::SimTime{in.i64()};
    finding.observation.detail = read_text(in);
    finding.frames_sent = in.u64();
    finding.seed = in.u64();
    finding.generator = read_text(in);
    if (!read_frames(in, finding.recent_frames)) return std::nullopt;
  }
  if (!read_frames(in, checkpoint.recent_frames)) return std::nullopt;
  if (!in.done()) return std::nullopt;  // truncated, or trailing bytes
  return checkpoint;
}

bool CampaignCheckpoint::save(const std::string& path) const {
  return util::write_file(path, encode());
}

std::optional<CampaignCheckpoint> CampaignCheckpoint::load(const std::string& path) {
  const auto bytes = util::read_file(path);
  if (!bytes) return std::nullopt;
  return decode(*bytes);
}

}  // namespace acf::fuzzer
