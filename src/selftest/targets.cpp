// Self-fuzz targets and their invariant catalogue.
//
// Invariant families (referenced per target below):
//   [R] round-trip: decode∘encode = id
//   [F] fixed point: print∘parse is stable after one cycle (for surfaces
//       that normalise, e.g. sub-microsecond timestamps truncate on print)
//   [M] malformed input is rejected cleanly: nullopt / error list /
//       counted stat — never a throw, crash, UB or unbounded allocation
//   [S] structural: whatever a parser accepts satisfies the type's
//       documented invariants (DLC bounds, signals fit, valid verdicts)
//   [L] liveness: protocol state machines return to idle once input stops
//       (plus bounded tolerance of hostile stalling, e.g. N_WFTmax)
//   [P] persistence: a world reset in place runs as a newly built one
#include "selftest/targets.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <sstream>

#include "can/wire_codec.hpp"
#include "dbc/parser.hpp"
#include "feedback/corpus.hpp"
#include "fleet/remote/checkpoint.hpp"
#include "fleet/remote/wire.hpp"
#include "ids/eval_codec.hpp"
#include "isotp/isotp.hpp"
#include "metrics/snapshot.hpp"
#include "obd/obd.hpp"
#include "selftest/world_reset.hpp"
#include "sim/scheduler.hpp"
#include "trace/candump_log.hpp"
#include "trace/replay.hpp"
#include "transport/transport.hpp"
#include "transport/virtual_bus_transport.hpp"
#include "uds/uds_server.hpp"
#include "util/rng.hpp"
#include "xcp/xcp.hpp"

namespace acf::selftest {

namespace {

using Bytes = std::span<const std::uint8_t>;
using Verdict = std::optional<std::string>;

std::string_view as_text(Bytes bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

std::uint64_t fnv1a(Bytes bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

bool doubles_equal(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

/// Up to `max_len` consecutive input bytes (whitespace, control characters
/// and all) from a position the RNG picks: the text of values that targets
/// build from their input.
std::string slice_text(Bytes input, util::Rng& rng, std::size_t max_len) {
  if (input.empty()) return {};
  const auto len = rng.next_below(std::min(input.size(), max_len) + 1);
  const auto start = rng.next_below(input.size() - len + 1);
  return {reinterpret_cast<const char*>(input.data()) + start,
          static_cast<std::size_t>(len)};
}

// ---------------------------------------------------------------------------
// dbc: parse arbitrary text; whatever loads must be structurally sound,
// survive print→parse unchanged, and encode and decode through the signal
// codec.  [R][M][S]

/// Runs one loaded signal through the codec on a payload of its message's
/// DLC, filled from the input: the raw value survives extract→insert, an
/// inserted raw value reads back, and encoding the decoded physical value
/// writes only the signal's own bits.
Verdict check_signal_codec(const dbc::MessageDef& message, const dbc::SignalDef& sig,
                           Bytes input) {
  std::array<std::uint8_t, can::kMaxClassicPayload> original{};
  for (std::size_t i = 0; i < message.dlc && !input.empty(); ++i) {
    original[i] = input[(i + sig.start_bit) % input.size()];
  }
  const std::span<const std::uint8_t> payload(original.data(), message.dlc);
  const auto raw = dbc::extract_raw(sig, payload);
  const auto physical = dbc::decode(sig, payload);
  if (!raw || !physical) return "signal '" + sig.name + "' does not decode from its message";
  auto written = original;
  const std::span<std::uint8_t> writable(written.data(), message.dlc);
  const std::uint64_t mask = sig.bit_length >= 64 ? ~0ULL : (1ULL << sig.bit_length) - 1;
  if (!dbc::insert_raw(sig, ~*raw & mask, writable) ||
      dbc::extract_raw(sig, writable) != (~*raw & mask)) {
    return "signal '" + sig.name + "' does not read back an inserted raw value";
  }
  if (!dbc::encode(sig, *physical, writable) || !dbc::insert_raw(sig, *raw, writable) ||
      written != original) {
    return "encoding signal '" + sig.name + "' changed bits outside it";
  }
  return std::nullopt;
}

bool signals_equal(const dbc::SignalDef& a, const dbc::SignalDef& b) {
  return a.name == b.name && a.start_bit == b.start_bit && a.bit_length == b.bit_length &&
         a.byte_order == b.byte_order && a.is_signed == b.is_signed &&
         doubles_equal(a.scale, b.scale) && doubles_equal(a.offset, b.offset) &&
         doubles_equal(a.min, b.min) && doubles_equal(a.max, b.max) && a.unit == b.unit;
}

bool databases_equal(const dbc::Database& a, const dbc::Database& b) {
  if (a.size() != b.size()) return false;
  for (const dbc::MessageDef& message : a.messages()) {
    const dbc::MessageDef* other = b.by_id(message.id);
    if (other == nullptr || other->name != message.name || other->dlc != message.dlc ||
        other->format != message.format || other->cycle_time_ms != message.cycle_time_ms ||
        other->signals.size() != message.signals.size()) {
      return false;
    }
    for (std::size_t i = 0; i < message.signals.size(); ++i) {
      if (!signals_equal(message.signals[i], other->signals[i])) return false;
    }
  }
  return true;
}

Verdict run_dbc(Bytes input) {
  const dbc::ParseResult first = dbc::parse_dbc(as_text(input));
  for (const dbc::MessageDef& message : first.database.messages()) {
    if (message.dlc > can::kMaxClassicPayload) {
      return "parser accepted message '" + message.name + "' with DLC " +
             std::to_string(message.dlc);
    }
    for (const dbc::SignalDef& sig : message.signals) {
      if (!sig.fits(message.dlc)) {
        return "parser accepted signal '" + sig.name + "' exceeding DLC of '" +
               message.name + "'";
      }
      if (Verdict verdict = check_signal_codec(message, sig, input)) return verdict;
    }
  }
  const std::string printed = dbc::to_dbc_text(first.database, first.nodes);
  const dbc::ParseResult second = dbc::parse_dbc(printed);
  if (!second.errors.empty()) {
    return "printed DBC no longer parses: " + second.errors.front();
  }
  if (!databases_equal(first.database, second.database)) {
    return "DBC parse→print→parse diverges";
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// candump: the per-line log reader.  Accepted lines must reprint and
// reparse to the same frame, and printing must be a fixed point (timestamps
// normalise to microsecond resolution on the first print).  [F][M]

Verdict run_candump(Bytes input) {
  std::istringstream in{std::string(as_text(input))};
  std::string line;
  while (std::getline(in, line)) {
    const auto entry = trace::parse_candump_line(line);
    if (!entry) continue;  // clean rejection
    const std::string printed = trace::to_candump_line(*entry, "can0");
    const auto reparsed = trace::parse_candump_line(printed);
    if (!reparsed) return "accepted candump line fails to reparse: " + printed;
    if (!(reparsed->frame == entry->frame)) {
      return "candump frame changed across print/parse: " + printed;
    }
    if (trace::to_candump_line(*reparsed, "can0") != printed) {
      return "candump print is not a fixed point: " + printed;
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// replay: hostile traces (out-of-order, ~292-year gaps, scaled) must replay
// every frame and terminate.  [L][M]

class CountingTransport final : public transport::CanTransport {
 public:
  bool send(const can::CanFrame&) override {
    ++stats_.frames_sent;
    return true;
  }
  void set_rx_callback(transport::RxCallback) override {}
  std::string name() const override { return "selftest:null"; }
  const transport::TransportStats& stats() const override { return stats_; }

 private:
  transport::TransportStats stats_;
};

Verdict run_replay(Bytes input) {
  if (input.empty()) return std::nullopt;
  static constexpr double kScales[] = {0.25, 0.5, 1.0, 2.0, 4.0, 1000.0};
  trace::ReplayOptions options;
  options.time_scale = kScales[input[0] % std::size(kScales)];
  options.repeat = 1 + ((input[0] >> 3) & 1);

  std::istringstream in{std::string(as_text(input.subspan(1)))};
  auto frames = trace::read_candump(in, nullptr);
  if (frames.size() > 128) frames.resize(128);
  const std::size_t count = frames.size();

  sim::Scheduler scheduler;
  CountingTransport transport;
  trace::Replayer replayer(scheduler, transport, std::move(frames), options);
  bool done = count == 0;
  replayer.set_on_done([&done] { done = true; });
  replayer.start();
  // One scheduled event per frame plus the repeat gaps: a generous step
  // bound means "didn't finish" is a liveness bug, not a tight budget.
  const std::size_t max_steps = count * options.repeat + 64;
  for (std::size_t i = 0; i < max_steps && replayer.running(); ++i) {
    if (!scheduler.step()) break;
  }
  if (count == 0) return std::nullopt;
  if (replayer.running() || !done) return "replay did not terminate";
  if (replayer.frames_sent() != count * options.repeat) {
    return "replay sent " + std::to_string(replayer.frames_sent()) + " of " +
           std::to_string(count * options.repeat) + " frames";
  }
  if (transport.stats().frames_sent != replayer.frames_sent()) {
    return "replay frame accounting diverges from transport";
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// isotp: IsoTpChannel::handle_frame driven by a byte script — raw frames on
// the rx id (the mutator controls the PCI byte directly), interleaved with
// time advance and channel sends.  The channel must keep counting stats,
// never deliver an oversized message, and drain back to idle.  [L][M][S]

Verdict run_isotp(Bytes input) {
  sim::Scheduler scheduler;
  isotp::IsoTpConfig config;
  config.timeout = std::chrono::milliseconds(100);
  std::uint64_t raw_sent = 0;
  Verdict verdict;
  isotp::IsoTpChannel channel(
      scheduler,
      [&raw_sent](const can::CanFrame&) {
        ++raw_sent;
        return raw_sent % 7 != 0;  // periodic mailbox-full to exercise retry
      },
      config);
  std::uint64_t delivered = 0;
  channel.set_on_message([&](const std::vector<std::uint8_t>& message, sim::SimTime) {
    ++delivered;
    if (message.empty() || message.size() > isotp::kMaxPayload) {
      verdict = "delivered message of size " + std::to_string(message.size());
    }
  });

  std::uint64_t injected = 0;
  std::size_t pos = 0;
  while (pos < input.size() && !verdict) {
    const std::uint8_t op = input[pos++];
    if (op < 0x40) {
      scheduler.run_for(std::chrono::milliseconds(op));
    } else if (op < 0x80) {
      if (!channel.tx_busy()) {
        const std::size_t size = (static_cast<std::size_t>(op - 0x40) * 33) % 4096 + 1;
        channel.send(std::vector<std::uint8_t>(size, 0xA5));
      }
    } else {
      const std::size_t len = std::min<std::size_t>(op & 0x0F, 8);
      const std::size_t take = std::min(len, input.size() - pos);
      const auto frame =
          can::CanFrame::data(config.rx_id, input.subspan(pos, take));
      pos += take;
      if (frame) {
        channel.handle_frame(*frame, scheduler.now());
        ++injected;
      }
    }
  }
  if (verdict) return verdict;

  // Liveness: with input exhausted, timeouts (and the N_WFTmax bound while
  // input was flowing) must return both state machines to idle.  The window
  // must cover one full legitimate transfer: ~585 consecutive frames at the
  // maximum 127 ms STmin is ~75 s, plus N_WFTmax timeout re-arms.
  scheduler.run_for(std::chrono::seconds(120));
  if (channel.tx_busy()) return "tx state machine stuck after input drained";
  const isotp::IsoTpStats& stats = channel.stats();
  if (stats.malformed_frames > injected) {
    return "malformed_frames exceeds injected frame count";
  }
  if (delivered != stats.messages_received) {
    return "messages_received diverges from delivered callback count";
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// uds: UdsServer::handle_request on length-sliced arbitrary requests.  Every
// response is empty, a well-formed negative (0x7F sid nrc) or a positive
// echoing sid+0x40; the server itself never throws.  [M][S]

Verdict run_uds(Bytes input) {
  sim::Scheduler scheduler;
  uds::UdsServer server(scheduler);
  server.set_did(0xF190, {0x41, 0x43, 0x46}, false);
  server.set_did(0xF1A0, {0x00, 0x01}, true, true);
  server.set_dtc_provider([] { return std::vector<std::uint8_t>{0x01, 0x23, 0x45, 0x20}; });

  Verdict verdict;
  std::size_t pos = 0;
  while (pos < input.size() && !verdict) {
    const std::uint8_t control = input[pos++];
    const std::size_t len = std::min<std::size_t>(control % 17, input.size() - pos);
    const auto request = input.subspan(pos, len);
    pos += len;
    server.handle_request(request, [&](std::vector<std::uint8_t> response) {
      if (request.empty()) {
        verdict = "response produced for empty request";
        return;
      }
      const std::uint8_t sid = request[0];
      if (response.empty()) {
        verdict = "empty response passed to respond callback";
      } else if (response[0] == uds::kNegativeResponse) {
        if (response.size() != 3 || response[1] != sid) {
          verdict = "malformed negative response (sid " + std::to_string(sid) + ")";
        }
      } else if (response[0] != static_cast<std::uint8_t>(sid + 0x40)) {
        verdict = "positive response does not echo sid+0x40 (sid " +
                  std::to_string(sid) + ")";
      }
    });
    scheduler.run_for(std::chrono::milliseconds(control >> 4));
  }
  return verdict;
}

// ---------------------------------------------------------------------------
// wire: classic-CAN wire codec.  Structured mode: encode a frame built from
// the input, require decode∘encode = id, then require any single-bit
// corruption to be rejected or decode to the identical frame (CRC-15 +
// form checks).  Raw mode: arbitrary bit soup must decode cleanly or not at
// all, and whatever decodes must re-encode to itself.  [R][M]

Verdict run_wire(Bytes input) {
  if (input.empty()) return std::nullopt;
  const std::uint8_t mode = input[0];
  const Bytes rest = input.subspan(1);

  if ((mode & 1) != 0) {
    // Raw-bit mode.
    std::vector<std::uint8_t> bits;
    bits.reserve(std::min<std::size_t>(rest.size() * 8, 2048));
    for (const std::uint8_t byte : rest) {
      for (int bit = 7; bit >= 0 && bits.size() < 2048; --bit) {
        bits.push_back((byte >> bit) & 1);
      }
    }
    for (const bool wire_form : {true, false}) {
      const auto decoded =
          wire_form ? can::decode_wire(bits) : can::decode_logical(bits);
      if (!decoded) continue;
      const can::BitVec reencoded =
          wire_form ? can::encode_wire(*decoded, true) : can::encode_logical(*decoded);
      const auto redecoded =
          wire_form ? can::decode_wire(reencoded) : can::decode_logical(reencoded);
      if (!redecoded || !(*redecoded == *decoded)) {
        return std::string("decoded frame does not survive re-encode (") +
               (wire_form ? "wire" : "logical") + ")";
      }
    }
    return std::nullopt;
  }

  // Structured mode: header bytes choose the frame, the rest picks flips.
  if (rest.size() < 6) return std::nullopt;
  const bool extended = (mode & 2) != 0;
  const bool remote = (mode & 4) != 0;
  std::uint32_t id = static_cast<std::uint32_t>(rest[0]) |
                     (static_cast<std::uint32_t>(rest[1]) << 8) |
                     (static_cast<std::uint32_t>(rest[2]) << 16);
  id &= extended ? can::kMaxExtendedId : can::kMaxStandardId;
  const auto format = extended ? can::IdFormat::kExtended : can::IdFormat::kStandard;
  const std::size_t payload_len = rest[3] % 9;
  std::optional<can::CanFrame> frame;
  if (remote) {
    frame = can::CanFrame::remote(id, static_cast<std::uint8_t>(payload_len), format);
  } else {
    const std::size_t take = std::min(payload_len, rest.size() - 4);
    frame = can::CanFrame::data(id, rest.subspan(4, take), format);
  }
  if (!frame) return "structured frame constructor rejected in-range inputs";

  can::BitVec wire = can::encode_wire(*frame, true);
  const auto clean = can::decode_wire(wire);
  if (!clean || !(*clean == *frame)) return "decode(encode(frame)) != frame";

  const std::size_t flips = std::min<std::size_t>(mode >> 4, rest.size() - 4);
  for (std::size_t i = 0; i < flips; ++i) {
    wire[rest[4 + i] % wire.size()] ^= 1;
  }
  const auto corrupted = can::decode_wire(wire);
  if (flips == 1 && corrupted && !(*corrupted == *frame)) {
    return "single-bit corruption decoded as a different frame";
  }
  if (corrupted) {
    const auto survived = can::decode_wire(can::encode_wire(*corrupted, true));
    if (!survived || !(*survived == *corrupted)) {
      return "corrupted-but-accepted frame does not survive re-encode";
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// fleet_wire: the distributed-campaign frame protocol.  Raw mode: arbitrary
// bytes through FrameReader (chunked arbitrarily vs fed whole must agree),
// then strict decode — whatever decodes must re-encode to the identical
// payload and carry a type byte of the protocol (1..8), truncated frames
// yield nothing, zero/oversized length prefixes poison the stream.
// Structured mode: synthesise each message type from the input, frame it,
// push it through a chunked reader and require value identity back out; the
// same payload under a type byte outside 1..8 must not decode.  [R][M][S]

namespace fr = fleet::remote;

bool messages_equal(const fr::Message& a, const fr::Message& b) {
  // Value equality via the canonical encoding: every field crosses encode().
  return fr::encode(a) == fr::encode(b);
}

/// Drains a stream through FrameReader in `rng`-sized chunks.
struct DrainResult {
  std::vector<std::vector<std::uint8_t>> payloads;
  bool poisoned = false;
};

DrainResult drain_chunked(Bytes stream, util::Rng* rng) {
  DrainResult result;
  fr::FrameReader reader;
  std::size_t pos = 0;
  while (pos < stream.size()) {
    const std::size_t chunk =
        rng ? 1 + rng->next_below(64) : stream.size() - pos;
    const std::size_t take = std::min<std::size_t>(chunk, stream.size() - pos);
    reader.feed(stream.subspan(pos, take));
    pos += take;
    while (auto payload = reader.next()) result.payloads.push_back(std::move(*payload));
  }
  while (auto payload = reader.next()) result.payloads.push_back(std::move(*payload));
  result.poisoned = reader.poisoned();
  return result;
}

/// Arbitrary-magnitude but always-finite double (the wire and the snapshot
/// codec both reject non-finite values, so generators must stay finite).
double finite_double(util::Rng& rng) {
  return std::ldexp(static_cast<double>(rng.next_u64()), -32);
}

/// A snapshot with every field set, meters and quantiles included: the wire
/// drops those, so the decoded message must still re-encode identically.
metrics::RegistrySnapshot random_metrics(Bytes input, util::Rng& rng) {
  metrics::RegistrySnapshot snap;
  const auto counters = rng.next_below(4);
  for (std::uint64_t i = 0; i < counters; ++i) {
    snap.counters.push_back({slice_text(input, rng, 48), rng.next_u64()});
  }
  const auto gauges = rng.next_below(3);
  for (std::uint64_t i = 0; i < gauges; ++i) {
    snap.gauges.push_back(
        {slice_text(input, rng, 48), static_cast<std::int64_t>(rng.next_u64())});
  }
  if (rng.next_bool()) {
    snap.meters.push_back({slice_text(input, rng, 48), rng.next_u64(), finite_double(rng),
                           finite_double(rng), finite_double(rng), finite_double(rng)});
  }
  const auto timers = rng.next_below(3);
  for (std::uint64_t i = 0; i < timers; ++i) {
    metrics::TimerSnap& timer = snap.timers.emplace_back();
    timer.name = slice_text(input, rng, 48);
    timer.count = rng.next_u64();
    for (double* value : {&timer.sum, &timer.min, &timer.max, &timer.p50, &timer.p90,
                          &timer.p99, &timer.p999}) {
      *value = finite_double(rng);
    }
    const auto samples = rng.next_below(5);
    for (std::uint64_t s = 0; s < samples; ++s) {
      timer.samples.push_back({finite_double(rng), rng.next_u64(), rng.next_u64()});
    }
  }
  return snap;
}

fr::Message random_message(Bytes input, util::Rng& rng) {
  switch (rng.next_below(8)) {
    case 0: {
      fr::HelloMsg msg;
      msg.protocol_version = static_cast<std::uint32_t>(rng.next_u64());
      msg.fingerprint = rng.next_u64();
      msg.instance_id = rng.next_u64();
      return msg;
    }
    case 1: {
      fr::WelcomeMsg msg;
      msg.fingerprint = rng.next_u64();
      msg.trial_count = rng.next_u64();
      return msg;
    }
    case 2:
      return fr::LeaseRequestMsg{static_cast<std::uint32_t>(rng.next_u64())};
    case 3: {
      fr::LeaseGrantMsg msg;
      msg.lease_id = rng.next_u64();
      const auto count = rng.next_below(17);
      for (std::uint64_t i = 0; i < count; ++i) msg.trials.push_back(rng.next_u64());
      return msg;
    }
    case 4: {
      fr::LeaseResultMsg msg;
      msg.lease_id = rng.next_u64();
      msg.outcome.spec.trial_index = rng.next_u64();
      msg.outcome.spec.arm = rng.next_below(64);
      msg.outcome.spec.replica = rng.next_below(1024);
      msg.outcome.spec.seed = rng.next_u64();
      msg.outcome.spec.sim_budget =
          sim::Duration{static_cast<std::int64_t>(rng.next_u64())};
      msg.outcome.status = static_cast<fleet::TrialStatus>(rng.next_below(3));
      msg.outcome.stop_reason =
          static_cast<fuzzer::StopReason>(rng.next_below(fuzzer::kStopReasonCount));
      msg.outcome.frames_sent = rng.next_u64();
      msg.outcome.send_failures = rng.next_u64();
      msg.outcome.sim_seconds = std::bit_cast<double>(rng.next_u64());
      msg.outcome.time_to_failure = std::bit_cast<double>(rng.next_u64());
      const auto findings = rng.next_below(4);
      for (std::uint64_t i = 0; i < findings; ++i) {
        msg.outcome.findings.push_back(slice_text(input, rng, 96));
      }
      msg.outcome.error = slice_text(input, rng, 96);
      return msg;
    }
    case 5: {
      fr::HeartbeatMsg msg;
      msg.lease_id = rng.next_u64();
      if (rng.next_bool()) msg.metrics = random_metrics(input, rng);
      return msg;
    }
    case 6:
      return fr::ShutdownMsg{static_cast<fr::ShutdownReason>(rng.next_below(2))};
    default:
      return fr::RejectedMsg{slice_text(input, rng, 128)};
  }
}

/// True for the type bytes the protocol defines (MsgType: 1..8).
bool known_message_type(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(fr::MsgType::kHello) &&
         type <= static_cast<std::uint8_t>(fr::MsgType::kRejected);
}

Verdict run_fleet_wire(Bytes input) {
  if (input.empty()) return std::nullopt;
  util::Rng rng(fnv1a(input) ^ 0xF1EE7ULL);
  const std::uint8_t mode = input[0];
  const Bytes rest = input.subspan(1);

  if ((mode & 1) != 0) {
    // Raw mode: the stream IS the input.  Chunking must not matter.
    DrainResult whole = drain_chunked(rest, nullptr);
    DrainResult chunked = drain_chunked(rest, &rng);
    if (whole.poisoned != chunked.poisoned ||
        whole.payloads != chunked.payloads) {
      return "FrameReader output depends on chunk boundaries";
    }
    for (const std::vector<std::uint8_t>& payload : whole.payloads) {
      if (payload.empty() || payload.size() > fr::kMaxFramePayload) {
        return "FrameReader emitted a payload outside the declared bounds";
      }
      const std::optional<fr::Message> decoded = fr::decode(payload);
      if (!decoded) continue;  // clean rejection is the contract
      if (fr::encode(*decoded) != payload) {
        return "accepted wire payload does not re-encode to itself";
      }
      if (!known_message_type(payload[0])) {
        return "payload with type byte " + std::to_string(payload[0]) + " decoded";
      }
    }
    return std::nullopt;
  }

  // Structured mode: synthesised messages must cross a chunked stream
  // intact, truncation must starve the reader, and a hostile length prefix
  // must poison it.
  const auto count = 1 + rng.next_below(6);
  std::vector<fr::Message> sent;
  std::vector<std::uint8_t> stream;
  for (std::uint64_t i = 0; i < count; ++i) {
    sent.push_back(random_message(input, rng));
    const std::vector<std::uint8_t> frame = fr::frame_message(sent.back());
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  DrainResult drained = drain_chunked(stream, &rng);
  if (drained.poisoned) return "well-formed frame stream poisoned the reader";
  if (drained.payloads.size() != sent.size()) {
    return "reader returned " + std::to_string(drained.payloads.size()) + " of " +
           std::to_string(sent.size()) + " frames";
  }
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const std::optional<fr::Message> decoded = fr::decode(drained.payloads[i]);
    if (!decoded) return "well-formed frame failed strict decode";
    if (!messages_equal(*decoded, sent[i])) {
      return "message changed across frame/decode round-trip";
    }
  }

  // The same body under a type byte the protocol does not define (0 or
  // 9..255) is malformed, never decoded as something else.
  std::vector<std::uint8_t> retyped = drained.payloads.front();
  retyped[0] = rng.next_bool() ? 0 : static_cast<std::uint8_t>(9 + rng.next_below(247));
  if (fr::decode(retyped)) {
    return "payload with type byte " + std::to_string(retyped[0]) + " decoded";
  }

  // Truncation: cutting the stream mid-frame must never yield that frame.
  if (!stream.empty()) {
    const std::size_t cut = 1 + rng.next_below(std::min<std::size_t>(
                                    fr::frame_message(sent.back()).size() - 1, 64));
    DrainResult truncated = drain_chunked(
        Bytes(stream).subspan(0, stream.size() - cut), &rng);
    if (truncated.poisoned) return "truncated well-formed stream poisoned the reader";
    if (truncated.payloads.size() >= sent.size()) {
      return "reader emitted a frame whose bytes were truncated";
    }
  }

  // Hostile length prefixes: zero and oversized both poison before any
  // payload is buffered.
  for (const std::uint32_t hostile :
       {0u, static_cast<std::uint32_t>(fr::kMaxFramePayload) + 1, 0xFFFFFFFFu}) {
    fr::FrameReader reader;
    std::uint8_t prefix[4];
    for (int b = 0; b < 4; ++b) prefix[b] = static_cast<std::uint8_t>(hostile >> (8 * b));
    reader.feed(std::span<const std::uint8_t>(prefix, 4));
    if (!reader.poisoned()) {
      return "length prefix " + std::to_string(hostile) + " did not poison the reader";
    }
    if (reader.feed(rest.subspan(0, std::min<std::size_t>(rest.size(), 8))) ||
        reader.next()) {
      return "poisoned reader accepted further input";
    }
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// metrics_snapshot: the acf-metrics-v1 JSONL codec.  Raw mode: arbitrary
// text through parse_snapshot_line — clean rejection or, when accepted,
// encode∘parse∘encode must be a fixed point (one canonicalizing encode).
// Structured mode: build a registry from the input bytes (names may carry
// quotes, backslashes and control bytes, exercising the shared JSON
// escaper), snapshot it, encode, parse, re-encode byte-identically.  [R][M][S]

Verdict run_metrics_snapshot(Bytes input) {
  if (input.empty()) return std::nullopt;
  util::Rng rng(fnv1a(input) ^ 0x5EEDF00DULL);
  const std::uint8_t mode = input[0];
  const Bytes rest = input.subspan(1);

  if ((mode & 1) != 0) {
    const std::optional<metrics::SnapshotLine> parsed =
        metrics::parse_snapshot_line(as_text(rest));
    if (!parsed) return std::nullopt;  // clean rejection is the contract
    const std::string encoded = metrics::encode_snapshot_line(*parsed);
    const std::optional<metrics::SnapshotLine> reparsed =
        metrics::parse_snapshot_line(encoded);
    if (!reparsed) return "accepted line re-encoded to something the parser rejects";
    if (metrics::encode_snapshot_line(*reparsed) != encoded) {
      return "encode∘parse is not a fixed point on an accepted line";
    }
    return std::nullopt;
  }

  // Structured mode: hostile names through a real registry.
  metrics::Registry registry;
  const auto counters = rng.next_below(5);
  for (std::uint64_t i = 0; i < counters; ++i) {
    registry.counter(slice_text(rest, rng, 48)).add(rng.next_u64());
  }
  const auto gauges = rng.next_below(4);
  for (std::uint64_t i = 0; i < gauges; ++i) {
    registry.gauge(slice_text(rest, rng, 48)).set(static_cast<std::int64_t>(rng.next_u64()));
  }
  const auto meters = rng.next_below(3);
  for (std::uint64_t i = 0; i < meters; ++i) {
    metrics::Meter& meter = registry.meter(slice_text(rest, rng, 48));
    meter.mark(rng.next_below(1000));
    meter.tick_to(std::ldexp(static_cast<double>(rng.next_below(1 << 20)), -4));
  }
  const auto timers = rng.next_below(3);
  for (std::uint64_t i = 0; i < timers; ++i) {
    metrics::Timer& timer = registry.timer(slice_text(rest, rng, 48));
    const auto records = rng.next_below(16);
    for (std::uint64_t s = 0; s < records; ++s) timer.record(finite_double(rng));
  }

  metrics::SnapshotLine line;
  line.seq = rng.next_u64();
  line.source = slice_text(rest, rng, 48);
  line.sim_seconds = finite_double(rng);
  line.registry = registry.snapshot();
  for (metrics::TimerSnap& timer : line.registry.timers) timer.samples.clear();

  const std::string encoded = metrics::encode_snapshot_line(line);
  if (encoded.find('\n') != std::string::npos) {
    return "encoded snapshot line contains a raw newline";
  }
  const std::optional<metrics::SnapshotLine> parsed = metrics::parse_snapshot_line(encoded);
  if (!parsed) return "snapshot of a real registry failed strict parse";
  if (metrics::encode_snapshot_line(*parsed) != encoded) {
    return "snapshot line changed across encode/parse round-trip";
  }
  if (parsed->seq != line.seq || parsed->source != line.source) {
    return "snapshot header fields changed across round-trip";
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// corpus_file: the feedback corpus disk format ("ACFC").  Raw mode: strict
// bounded decode of arbitrary bytes — whatever decodes must satisfy every
// structural bound the format documents (seed/frame/feature caps, strictly
// increasing features, classic-CAN frames) and re-encode byte-identically,
// because the decoder only accepts canonical encodings.  Structured mode:
// synthesise a corpus from the input bytes, require decode∘encode identity,
// and require every truncation and any trailing garbage to be rejected
// before allocation.  [R][M][S]

Verdict run_corpus_file(Bytes input) {
  if (input.empty()) return std::nullopt;
  const std::uint8_t mode = input[0];
  const Bytes rest = input.subspan(1);

  if ((mode & 1) != 0) {
    // Raw mode.
    const auto decoded = feedback::Corpus::decode(rest);
    if (!decoded) return std::nullopt;  // clean rejection is the contract
    if (decoded->size() > feedback::kMaxCorpusSeeds) {
      return "decoded corpus exceeds the seed cap";
    }
    for (std::size_t i = 0; i < decoded->size(); ++i) {
      const feedback::Seed& seed = decoded->at(i);
      if (seed.frames.empty() || seed.frames.size() > feedback::kMaxSeedFrames) {
        return "decoded seed frame count outside bounds";
      }
      if (seed.features.size() > feedback::kMaxSeedFeatures) {
        return "decoded seed feature count outside bounds";
      }
      for (std::size_t f = 1; f < seed.features.size(); ++f) {
        if (seed.features[f] <= seed.features[f - 1]) {
          return "decoded features are not strictly increasing";
        }
      }
      for (const can::CanFrame& frame : seed.frames) {
        if (frame.length() > can::kMaxClassicPayload || frame.is_fd()) {
          return "decoded frame outside classic-CAN bounds";
        }
      }
    }
    const std::vector<std::uint8_t> reencoded = decoded->encode();
    if (!std::equal(reencoded.begin(), reencoded.end(), rest.begin(), rest.end())) {
      return "accepted corpus bytes do not re-encode to themselves";
    }
    return std::nullopt;
  }

  // Structured mode: synthesise, round-trip, then attack the canonical bytes.
  util::Rng rng(fnv1a(input) ^ 0xC0B9A5ULL);
  feedback::Corpus corpus;
  const auto seeds = rng.next_below(6);
  for (std::uint64_t i = 0; i < seeds; ++i) {
    feedback::Seed seed;
    const auto frames = 1 + rng.next_below(5);
    for (std::uint64_t f = 0; f < frames; ++f) {
      const bool extended = rng.next_bool();
      const std::uint32_t id = static_cast<std::uint32_t>(rng.next_below(
          extended ? can::kMaxExtendedId + 1 : can::kMaxStandardId + 1));
      std::vector<std::uint8_t> payload(rng.next_below(9));
      rng.fill(payload);
      seed.frames.push_back(*can::CanFrame::data(
          id, payload, extended ? can::IdFormat::kExtended : can::IdFormat::kStandard));
    }
    const auto features = rng.next_below(9);
    for (std::uint64_t f = 0; f < features; ++f) seed.features.push_back(rng.next_u64());
    seed.hot = rng.next_bool();
    seed.found_at_exec = rng.next_u64();
    seed.exec_cost_ns = rng.next_u64();
    corpus.add(std::move(seed));  // sorts + dedups features
  }

  const std::vector<std::uint8_t> bytes = corpus.encode();
  const auto decoded = feedback::Corpus::decode(bytes);
  if (!decoded) return "canonical corpus bytes failed strict decode";
  if (decoded->size() != corpus.size()) {
    return "corpus seed count changed across encode/decode";
  }
  if (decoded->encode() != bytes) {
    return "corpus changed across encode/decode round-trip";
  }
  // Every truncation must be rejected (strict full consumption + bounded
  // counts checked against remaining bytes before allocation).
  const std::size_t cut = 1 + rng.next_below(std::min<std::size_t>(bytes.size(), 64));
  if (feedback::Corpus::decode(Bytes(bytes).subspan(0, bytes.size() - cut))) {
    return "truncated corpus bytes decoded";
  }
  std::vector<std::uint8_t> padded = bytes;
  padded.push_back(rng.next_byte());
  if (feedback::Corpus::decode(padded)) {
    return "corpus bytes with trailing garbage decoded";
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// fleet_checkpoint: the coordinator's campaign checkpoint, read back from
// disk on every resume.  Raw mode: FleetCheckpoint::decode on arbitrary
// bytes rejects cleanly; whatever it accepts re-encodes to exactly those
// bytes, declares format v3 (version_of reads it back), and keeps the
// documented layout (completed indices strictly ascending inside the plan).
// Structured mode: synthesise a checkpoint whose strings come from the input
// bytes and whose doubles are any bit pattern, then require decode∘encode
// identity, and refuse the same record under an older version.  [R][M][S]

/// Outcomes compare through their wire encoding, which carries every field
/// bit-exactly (doubles included).
bool fleet_checkpoints_equal(const fr::FleetCheckpoint& a, const fr::FleetCheckpoint& b) {
  const auto same = [](const fleet::TrialOutcome& x, const fleet::TrialOutcome& y) {
    return fr::encode(fr::LeaseResultMsg{0, x}) == fr::encode(fr::LeaseResultMsg{0, y});
  };
  return a.fingerprint == b.fingerprint && a.trial_count == b.trial_count &&
         std::equal(a.completed.begin(), a.completed.end(), b.completed.begin(),
                    b.completed.end(), same);
}

Verdict check_fleet_checkpoint_layout(const fr::FleetCheckpoint& checkpoint) {
  std::vector<std::size_t> done;
  for (const fleet::TrialOutcome& outcome : checkpoint.completed) {
    done.push_back(outcome.spec.trial_index);
  }
  if (std::adjacent_find(done.begin(), done.end(), std::greater_equal<>()) != done.end()) {
    return "accepted checkpoint has indices out of ascending order";
  }
  if (!done.empty() && done.back() >= checkpoint.trial_count) {
    return "accepted checkpoint has a trial outside the plan";
  }
  return std::nullopt;
}

Verdict run_fleet_checkpoint(Bytes input) {
  if (input.empty()) return std::nullopt;
  const Bytes rest = input.subspan(1);
  if ((input[0] & 1) != 0) {
    const auto parsed = fr::FleetCheckpoint::decode(rest);
    if (!parsed) return std::nullopt;  // clean rejection is the contract
    const std::vector<std::uint8_t> encoded = parsed->encode();
    if (!std::equal(encoded.begin(), encoded.end(), rest.begin(), rest.end())) {
      return "accepted fleet checkpoint does not re-encode to itself";
    }
    if (fr::FleetCheckpoint::version_of(rest) != fr::FleetCheckpoint::kVersion) {
      return "accepted fleet checkpoint does not declare this build's version";
    }
    return check_fleet_checkpoint_layout(*parsed);
  }
  util::Rng rng(fnv1a(input) ^ 0xF1EE7C4BULL);
  fr::FleetCheckpoint checkpoint;
  checkpoint.fingerprint = rng.next_u64();
  checkpoint.trial_count = 1 + rng.next_below(24);
  for (std::size_t index = 0; index < checkpoint.trial_count; ++index) {
    if (rng.next_below(3) != 0) continue;  // in flight or still queued
    fleet::TrialOutcome& outcome = checkpoint.completed.emplace_back();
    outcome.spec = {index, rng.next_below(64), rng.next_below(1024), rng.next_u64(),
                    sim::Duration{static_cast<std::int64_t>(rng.next_u64())}};
    outcome.status = static_cast<fleet::TrialStatus>(rng.next_below(3));
    outcome.stop_reason =
        static_cast<fuzzer::StopReason>(rng.next_below(fuzzer::kStopReasonCount));
    outcome.frames_sent = rng.next_u64();
    outcome.send_failures = rng.next_u64();
    outcome.sim_seconds = std::bit_cast<double>(rng.next_u64());
    outcome.time_to_failure = std::bit_cast<double>(rng.next_u64());
    outcome.findings.resize(rng.next_below(4));
    for (std::string& finding : outcome.findings) finding = slice_text(rest, rng, 64);
    outcome.error = slice_text(rest, rng, 48);
  }
  const std::vector<std::uint8_t> encoded = checkpoint.encode();
  const auto restored = fr::FleetCheckpoint::decode(encoded);
  if (!restored) return "encoded fleet checkpoint fails to decode";
  if (!fleet_checkpoints_equal(checkpoint, *restored)) {
    return "fleet checkpoint round-trip lost data";
  }
  if (restored->encode() != encoded) return "fleet checkpoint record is not a fixed point";
  // The same record under an older version number is refused, and
  // version_of names that number (the coordinator's message quotes it).
  std::vector<std::uint8_t> older = encoded;
  older[4] = static_cast<std::uint8_t>(rng.next_below(fr::FleetCheckpoint::kVersion));
  if (fr::FleetCheckpoint::decode(older)) return "fleet checkpoint of an older version decoded";
  if (fr::FleetCheckpoint::version_of(older) != older[4]) {
    return "version_of misread a checkpoint's version";
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// ids_eval_line: the `ids-eval/1` digest lines an attack trial's IDS
// evaluation travels in, decoded from finding strings remote workers send.
// Raw mode: decode_eval_line on arbitrary text; a rejected line leaves the
// evaluation untouched, and an accepted one re-encodes to lines that decode
// back to the same encoding.  Structured mode: synthesise an evaluation
// (detector names and the finding prefix come from the input bytes) and
// require its lines to decode back to exactly its values.  [R][F][M]

/// The lines encoding `eval`: totals first, then one per detector.
std::vector<std::string> eval_lines(const ids::TrialEval& eval) {
  std::vector<std::string> lines = {ids::encode_eval_totals(eval)};
  for (const ids::DetectorEval& det : eval.detectors) {
    lines.push_back(ids::encode_detector_eval(det));
  }
  return lines;
}

Verdict run_ids_eval_line(Bytes input) {
  if (input.empty()) return std::nullopt;
  const Bytes rest = input.subspan(1);
  util::Rng rng(fnv1a(input) ^ 0x1D5E7A1ULL);
  ids::TrialEval eval;
  std::string prefix;
  if ((input[0] & 1) != 0) {
    // A non-empty evaluation, so a rejected line visibly leaves it alone.
    eval.attack_frames = rng.next_u64();
    eval.detectors.emplace_back().name = "seeded";
    const std::vector<std::string> before = eval_lines(eval);
    if (!ids::decode_eval_line(as_text(rest), eval)) {
      if (eval_lines(eval) != before) return "rejected line modified the evaluation";
      return std::nullopt;
    }
  } else {
    for (std::uint64_t* count : {&eval.attack_frames, &eval.legit_frames,
                                 &eval.pipeline.frames_trained, &eval.pipeline.frames_scored,
                                 &eval.pipeline.alerts_raised, &eval.pipeline.alerts_suppressed,
                                 &eval.pipeline.alerts_dropped}) {
      *count = rng.next_u64();
    }
    eval.detectors.resize(rng.next_below(4));
    for (ids::DetectorEval& det : eval.detectors) {
      det.name = slice_text(rest, rng, 24);
      std::erase(det.name, ' ');  // names are single tokens in the grammar
      if (det.name.empty()) det.name = "det";
      det.threshold = rng.next_bool() ? finite_double(rng) : -finite_double(rng);
      for (std::uint64_t* count : {&det.tp, &det.fp, &det.tn, &det.fn}) *count = rng.next_u64();
      det.detection_latency = rng.next_bool() ? -1.0 : finite_double(rng);
      for (std::vector<std::uint64_t>* bins : {&det.attack_bins, &det.legit_bins}) {
        for (auto filled = rng.next_below(6); filled > 0; --filled) {
          (*bins)[rng.next_below(bins->size())] = rng.next_u64();
        }
      }
    }
    // Findings may carry any prefix before the marker (one holding the
    // marker itself would make the line ambiguous).
    prefix = slice_text(rest, rng, 32);
    if (prefix.find(ids::kEvalDigestMarker) != std::string::npos) prefix.clear();
  }
  const std::vector<std::string> lines = eval_lines(eval);
  ids::TrialEval decoded;
  for (const std::string& line : lines) {
    if (!ids::decode_eval_line(prefix + line, decoded)) return "encoded line rejected: " + line;
  }
  if (eval_lines(decoded) != lines) return "eval lines change across decode/encode";
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// world_reset: the feedback loop's persistent world.  Running one script,
// resetting and running a second must end where the second script leaves a
// newly built world (selftest/world_reset.hpp has the script format).  [P]

Verdict run_world_reset(Bytes input) {
  return check_world_reset(decode_world_reset_case(input));
}

// ---------------------------------------------------------------------------
// obd: ObdServer::handle_frame fed a byte script — raw frames on the
// functional (0x7DF) and the physical request id (the mutator controls the
// PCI byte), whole requests from a scan tool, and time advance.  Every frame
// the server sends carries the response id, and every response the tool
// reassembles is positive: an implemented mode + 0x40 with that mode's
// layout and the data source's values.  [M][S]

constexpr std::uint32_t kObdPhysicalRequest = 0x7E0;
constexpr std::uint32_t kObdResponse = kObdPhysicalRequest + 8;

isotp::IsoTpConfig obd_tool_config(std::uint32_t tx_id) {
  isotp::IsoTpConfig config;
  config.tx_id = tx_id;
  config.rx_id = kObdResponse;
  return config;
}

/// The data bytes the target's source answers mode 01 `pid` with; empty
/// for a PID the server does not implement.
std::vector<std::uint8_t> obd_pid_data(std::uint8_t pid) {
  switch (pid) {
    case obd::kPidSupported01To20: return {0x08, 0x18, 0x80, 0x00};  // 05 0C 0D 11
    case obd::kPidCoolantTemp: return {obd::encode_temp(91.0)};
    case obd::kPidEngineRpm: {
      const std::uint16_t raw = obd::encode_rpm(812.5);
      return {static_cast<std::uint8_t>(raw >> 8), static_cast<std::uint8_t>(raw & 0xFF)};
    }
    case obd::kPidVehicleSpeed: return {57};
    case obd::kPidThrottle: return {obd::encode_percent(18.0)};
    default: return {};
  }
}

Verdict check_obd_response(const std::vector<std::uint8_t>& response, const std::string& vin) {
  const auto fail = [&response](const char* what) -> Verdict {
    return what + (": " + hex_preview(response));
  };
  if (response.empty()) return fail("empty OBD response");
  switch (response[0]) {
    case obd::kModeCurrentData + 0x40: {
      if (response.size() == 1) return fail("mode 01 response without a PID");
      for (std::size_t i = 1; i < response.size();) {
        const std::vector<std::uint8_t> data = obd_pid_data(response[i++]);
        if (data.empty() || response.size() - i < data.size() ||
            !std::equal(data.begin(), data.end(), response.begin() + static_cast<long>(i))) {
          return fail("mode 01 response does not match the source");
        }
        i += data.size();
      }
      return std::nullopt;
    }
    case obd::kModeStoredDtcs + 0x40:
      if (response != std::vector<std::uint8_t>{0x43, 0x02, 0x01, 0x04, 0x03, 0x00}) {
        return fail("mode 03 response does not list the source's DTCs");
      }
      return std::nullopt;
    case obd::kModeClearDtcs + 0x40:
      if (response.size() != 1) return fail("mode 04 response carries data");
      return std::nullopt;
    case obd::kModeVehicleInfo + 0x40: {
      const std::size_t record = 2 + vin.size();
      if (response.size() == 1 || (response.size() - 1) % record != 0) {
        return fail("mode 09 response is not whole VIN records");
      }
      for (std::size_t i = 1; i < response.size(); i += record) {
        if (response[i] != obd::kInfoVin || response[i + 1] != 1 ||
            !std::equal(vin.begin(), vin.end(), response.begin() + static_cast<long>(i + 2))) {
          return fail("mode 09 record does not carry the VIN");
        }
      }
      return std::nullopt;
    }
    default:
      return fail("response does not echo an implemented mode + 0x40");
  }
}

Verdict run_obd(Bytes input) {
  sim::Scheduler scheduler;
  can::VirtualBus bus(scheduler);
  transport::VirtualBusTransport ecu_port(bus, "ecm");
  transport::VirtualBusTransport tool_port(bus, "scantool");
  Verdict verdict;

  obd::ObdDataSource source;
  source.rpm = [] { return 812.5; };
  source.speed_kph = [] { return 57.0; };
  source.coolant_c = [] { return 91.0; };
  source.throttle_pct = [] { return 18.0; };
  source.dtcs = [] { return std::vector<std::uint16_t>{0x0104, 0x0300}; };
  const std::string vin = source.vin;
  obd::ObdServer server(
      scheduler,
      [&](const can::CanFrame& frame) {
        if (frame.id() != kObdResponse && !verdict) {
          verdict = "server sent on id " + std::to_string(frame.id());
        }
        return ecu_port.send(frame);
      },
      kObdPhysicalRequest, std::move(source));
  ecu_port.set_rx_callback([&server](const can::CanFrame& frame, sim::SimTime time) {
    server.handle_frame(frame, time);
  });

  // The scan tool: single-frame requests on the functional id (its channel
  // only sends), and the physical pair, which also reassembles responses.
  const auto tool_send = [&tool_port](const can::CanFrame& frame) { return tool_port.send(frame); };
  isotp::IsoTpChannel functional(scheduler, tool_send, obd_tool_config(obd::kObdFunctionalRequest));
  isotp::IsoTpChannel physical(scheduler, tool_send, obd_tool_config(kObdPhysicalRequest));
  physical.set_on_message([&](const std::vector<std::uint8_t>& response, sim::SimTime) {
    if (!verdict) verdict = check_obd_response(response, vin);
  });
  tool_port.set_rx_callback([&physical](const can::CanFrame& frame, sim::SimTime time) {
    physical.handle_frame(frame, time);
  });

  std::size_t pos = 0;
  while (pos < input.size() && !verdict) {
    const std::uint8_t op = input[pos++];
    if (op < 0x40) {
      scheduler.run_for(std::chrono::milliseconds(op));
    } else if (op < 0x80) {
      // Whole request: functional (a single frame) or physical (multi-frame).
      const bool on_physical = (op & 0x20) != 0;
      const auto len = static_cast<std::size_t>(on_physical ? (op & 0x1F) : (op & 0x07));
      const std::size_t take = std::min(len, input.size() - pos);
      std::vector<std::uint8_t> request(input.begin() + static_cast<long>(pos),
                                        input.begin() + static_cast<long>(pos + take));
      pos += take;
      isotp::IsoTpChannel& channel = on_physical ? physical : functional;
      if (!request.empty() && !channel.tx_busy()) channel.send(std::move(request));
    } else {
      const std::uint32_t id = (op & 0x40) != 0 ? kObdPhysicalRequest : obd::kObdFunctionalRequest;
      const std::size_t take =
          std::min(static_cast<std::size_t>(std::min(op & 0x0F, 8)), input.size() - pos);
      if (const auto frame = can::CanFrame::data(id, input.subspan(pos, take))) {
        tool_port.send(*frame);
      }
      pos += take;
    }
  }
  // Let the last responses and ISO-TP timeouts play out.
  if (!verdict) scheduler.run_for(std::chrono::seconds(5));
  return verdict;
}

// ---------------------------------------------------------------------------
// xcp: XcpSlave::handle_frame on hostile command frames against a memory
// map with one mapped 16-byte window (input[0] places it, once at the top
// of the address space).  A reference model tracks the session and the MTA.
// A data frame on the command id draws exactly one reply on the response
// id: FF (positive) or FE with a known error code.  An UPLOAD or
// SHORT_UPLOAD reply carries exactly the n bytes asked for, read from the
// window.  DOWNLOAD writes only inside the window, at the MTA, and
// bytes_written() equals the writes the map accepted.  [M][S]

constexpr std::uint32_t kXcpCommandId = 0x6C0;
constexpr std::uint32_t kXcpResponseId = 0x6C1;

std::uint32_t le32(std::span<const std::uint8_t> bytes) {
  return static_cast<std::uint32_t>(bytes[0]) | (static_cast<std::uint32_t>(bytes[1]) << 8) |
         (static_cast<std::uint32_t>(bytes[2]) << 16) |
         (static_cast<std::uint32_t>(bytes[3]) << 24);
}

bool known_xcp_error(std::uint8_t code) {
  return code == xcp::kErrCmdUnknown || code == xcp::kErrCmdSyntax ||
         code == xcp::kErrOutOfRange || code == xcp::kErrNotConnected;
}

Verdict run_xcp(Bytes input) {
  if (input.empty()) return std::nullopt;
  static constexpr std::uint32_t kBases[] = {0x0, 0x1000, 0xFFFFFFF0};
  const std::uint32_t base = kBases[input[0] % std::size(kBases)];
  std::array<std::uint8_t, 16> window{};
  for (std::size_t i = 0; i < window.size(); ++i) window[i] = static_cast<std::uint8_t>(i ^ 0xA5);
  const auto in_window = [base, &window](std::uint32_t address) {
    return address - base < window.size();  // unsigned: wraps below base
  };

  std::vector<std::pair<std::uint32_t, std::uint8_t>> writes;  // this command's
  std::uint64_t accepted_writes = 0;
  xcp::XcpMemoryMap map;
  map.read_byte = [&](std::uint32_t address) -> std::optional<std::uint8_t> {
    if (!in_window(address)) return std::nullopt;
    return window[address - base];
  };
  map.write_byte = [&](std::uint32_t address, std::uint8_t value) {
    if (!in_window(address)) return false;
    window[address - base] = value;
    writes.emplace_back(address, value);
    ++accepted_writes;
    return true;
  };
  std::vector<can::CanFrame> replies;
  xcp::XcpSlave slave(kXcpCommandId, kXcpResponseId, std::move(map),
                      [&replies](const can::CanFrame& frame) {
                        replies.push_back(frame);
                        return true;
                      });

  bool connected = false;
  std::uint32_t mta = 0;
  std::uint64_t total_replies = 0;
  std::size_t pos = 1;
  while (pos < input.size()) {
    const std::uint8_t control = input[pos++];
    const std::size_t take = std::min(static_cast<std::size_t>(control % 9), input.size() - pos);
    const Bytes payload = input.subspan(pos, take);
    pos += take;
    std::optional<can::CanFrame> frame;
    if ((control >> 4) == 0xE) {
      frame = can::CanFrame::remote(kXcpCommandId, static_cast<std::uint8_t>(take));
    } else {
      frame = can::CanFrame::data((control >> 4) == 0xF ? kXcpResponseId : kXcpCommandId, payload);
    }
    if (!frame) continue;

    replies.clear();
    writes.clear();
    slave.handle_frame(*frame, sim::SimTime{0});
    total_replies += replies.size();
    const auto fail = [&payload](const std::string& what) -> Verdict {
      return what + ": " + hex_preview(payload);
    };
    if (frame->id() != kXcpCommandId || frame->is_remote() || payload.empty()) {
      if (!replies.empty()) return fail("slave answered a frame that is not a command");
      continue;
    }
    if (replies.size() != 1) {
      return fail("command drew " + std::to_string(replies.size()) + " replies");
    }
    const can::CanFrame& reply = replies.front();
    const auto r = reply.payload();
    if (reply.id() != kXcpResponseId || r.empty()) return fail("malformed reply");
    const std::uint8_t command = payload[0];
    const std::uint8_t n = payload.size() > 1 ? payload[1] : 0;
    if (r[0] == xcp::kPidError) {
      if (r.size() != 2 || !known_xcp_error(r[1])) return fail("malformed error reply");
      if (!connected && command != xcp::kCmdConnect && command != xcp::kCmdDisconnect &&
          r[1] != xcp::kErrNotConnected) {
        return fail("command outside a session not refused as such");
      }
      if (command == xcp::kCmdDownload &&
          (r[1] == xcp::kErrOutOfRange ? writes.size() >= n : !writes.empty())) {
        return fail("refused DOWNLOAD wrote " + std::to_string(writes.size()) + " bytes");
      }
      if (command != xcp::kCmdDownload && !writes.empty()) return fail("non-DOWNLOAD wrote");
      continue;
    }
    if (r[0] != xcp::kPidPositive) return fail("reply is neither FF nor FE");
    if (!connected && command != xcp::kCmdConnect && command != xcp::kCmdDisconnect) {
      return fail("command served outside a session");
    }
    if (command != xcp::kCmdDownload && !writes.empty()) return fail("non-DOWNLOAD wrote");
    switch (command) {
      case xcp::kCmdConnect: connected = true; break;
      case xcp::kCmdDisconnect: connected = false; break;
      case xcp::kCmdGetStatus: break;
      case xcp::kCmdSetMta:
        if (payload.size() < 8) return fail("short SET_MTA accepted");
        mta = le32(payload.subspan(4));
        break;
      case xcp::kCmdUpload:
      case xcp::kCmdShortUpload: {
        if (command == xcp::kCmdShortUpload) {
          if (payload.size() < 8) return fail("short SHORT_UPLOAD accepted");
          mta = le32(payload.subspan(4));
        }
        if (r.size() != 1u + n) {
          return fail("upload of " + std::to_string(n) + " bytes answered with " +
                      std::to_string(r.size() - 1));
        }
        for (std::uint8_t i = 0; i < n; ++i) {
          if (!in_window(mta + i) || r[1u + i] != window[mta + i - base]) {
            return fail("upload reply does not carry the window's bytes");
          }
        }
        mta += n;
        break;
      }
      case xcp::kCmdDownload:
        if (writes.size() != n) return fail("DOWNLOAD acknowledged after a partial write");
        for (std::uint8_t i = 0; i < n; ++i) {
          if (writes[i].first != mta + i || writes[i].second != payload[2u + i]) {
            return fail("DOWNLOAD wrote off the MTA");
          }
        }
        mta += n;
        break;
      default:
        return fail("unknown command acknowledged");
    }
  }
  if (slave.bytes_written() != accepted_writes) {
    return "bytes_written " + std::to_string(slave.bytes_written()) + " but the map took " +
           std::to_string(accepted_writes);
  }
  if (slave.commands_served() + slave.errors_sent() != total_replies) {
    return "served + errors diverges from the replies sent";
  }
  return std::nullopt;
}

std::vector<FuzzTarget> make_targets() {
  return {
      {"dbc", "dbc::parse_dbc + to_dbc_text print/parse identity", run_dbc},
      {"candump", "candump line reader print/parse fixed point", run_candump},
      {"replay", "trace::Replayer liveness on hostile traces", run_replay},
      {"isotp", "IsoTpChannel::handle_frame protocol state machine", run_isotp},
      {"uds", "UdsServer request decode response well-formedness", run_uds},
      {"wire", "classic-CAN wire codec round-trip + corruption rejection", run_wire},
      {"fleet_wire", "fleet campaign socket protocol framing + strict decode",
       run_fleet_wire},
      {"metrics_snapshot", "acf-metrics-v1 JSONL snapshot codec round-trip",
       run_metrics_snapshot},
      {"corpus_file", "feedback corpus disk format strict decode + round-trip",
       run_corpus_file},
      {"fleet_checkpoint", "FleetCheckpoint strict decode + re-encode identity",
       run_fleet_checkpoint},
      {"ids_eval_line", "ids-eval/1 digest line decode + encode round-trip",
       run_ids_eval_line},
      {"world_reset", "feedback world reset in place runs as a newly built one",
       run_world_reset},
      {"obd", "ObdServer hostile requests: response id and per-mode layout", run_obd},
      {"xcp", "XcpSlave hostile commands against a one-window memory map", run_xcp},
  };
}

}  // namespace

const std::vector<FuzzTarget>& all_targets() {
  static const std::vector<FuzzTarget> targets = make_targets();
  return targets;
}

const FuzzTarget* find_target(std::string_view name) {
  for (const FuzzTarget& target : all_targets()) {
    if (target.name == name) return &target;
  }
  return nullptr;
}

}  // namespace acf::selftest
