// Fleet wire protocol: the length-prefixed binary frames workers and the
// coordinator exchange.  Every frame is a u32 little-endian payload length
// followed by the payload; every payload starts with a one-byte message
// type.  The decoder follows the repo's hardened byte-reader discipline
// (see DESIGN.md §13): a bounds-checked cursor that can only fail closed,
// declared counts validated against the bytes actually present, strict
// full-consumption so decode∘encode is the identity on everything accepted,
// and unknown message types preserved verbatim rather than rejected — a
// v2 coordinator can speak to a v1 worker without killing the campaign.
//
// This surface is fuzzed: the `fleet_wire` self-fuzz target hammers
// FrameReader + decode with the same invariants as the other nine parsers.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "fleet/trial.hpp"
#include "fleet/trial_plan.hpp"

namespace acf::fleet::remote {

constexpr std::uint32_t kProtocolVersion = 1;
/// Hard ceiling on one frame's payload; a length prefix above it poisons
/// the stream before a single byte of the payload is buffered.
constexpr std::size_t kMaxFramePayload = 1u << 20;
constexpr std::size_t kMaxNameBytes = 256;
constexpr std::size_t kMaxStringBytes = 1u << 16;
constexpr std::size_t kMaxLeaseTrials = 4096;
/// Bounds on the metrics block a heartbeat may carry: instruments per
/// family, CKMS samples per timer.  Honest workers sit far below both.
constexpr std::size_t kMaxMetricsEntries = 512;
constexpr std::size_t kMaxTimerSamples = 4096;

enum class MsgType : std::uint8_t {
  kHello = 1,         // worker -> coordinator: version, fingerprint, capacity
  kWelcome = 2,       // coordinator -> worker: campaign accepted
  kLeaseRequest = 3,  // worker -> coordinator: idle, wants a batch
  kLeaseGrant = 4,    // coordinator -> worker: lease id, deadline, trials
  kLeaseResult = 5,   // worker -> coordinator: one finished trial
  kHeartbeat = 6,     // worker -> coordinator: liveness + batch progress
  kShutdown = 7,      // coordinator -> worker: campaign over, disconnect
  kRejected = 8,      // coordinator -> worker: handshake refused
};

struct HelloMsg {
  std::uint32_t protocol_version = kProtocolVersion;
  std::uint64_t fingerprint = 0;
  std::uint32_t capacity = 1;  // worker threads it will run trials on
  std::string worker_name;
  /// Unique per worker process, stable across reconnects.  Keys the
  /// coordinator's per-worker metrics block: a reconnect (same id) replaces
  /// its previous totals, while two workers that advertise the same name
  /// (distinct ids) keep separate blocks.  0 means "not provided"; the
  /// coordinator falls back to the session id, which degrades a reconnect
  /// to per-session blocks (double counts totals) but never loses a worker.
  std::uint64_t instance_id = 0;
};

struct WelcomeMsg {
  std::uint32_t protocol_version = kProtocolVersion;
  std::uint64_t fingerprint = 0;
  std::uint64_t trial_count = 0;
  std::uint64_t session = 0;  // coordinator-assigned worker session id
};

struct LeaseRequestMsg {
  std::uint32_t capacity = 1;
};

struct LeaseGrantMsg {
  std::uint64_t lease_id = 0;
  /// Informational time budget; the authoritative failure detector is the
  /// coordinator's activity clock (results and heartbeats renew it).
  std::uint32_t deadline_ms = 0;
  std::vector<std::uint64_t> trials;
};

struct LeaseResultMsg {
  std::uint64_t lease_id = 0;
  TrialOutcome outcome;
};

// --- heartbeat metrics block -----------------------------------------------
// A compact registry snapshot piggybacked on the liveness heartbeat: the
// worker ships its FULL running totals every time (idempotent under
// reconnect — the coordinator replaces, never adds), and timers carry their
// raw CKMS samples so the coordinator's merged quantiles keep the ε bound.
// Wall-driven meters never cross the wire (rates do not add across clocks).
// Mirrors metrics::RegistrySnapshot without depending on the metrics
// headers, so this file stays a standalone wire surface for the fuzzer;
// converters live in fleet/remote/metrics_wire.hpp.

struct WireCounter {
  std::string name;
  std::uint64_t value = 0;
};

struct WireGauge {
  std::string name;
  std::int64_t value = 0;
};

/// One CKMS sample: (value, g, delta) exactly as ckms.hpp defines it.
struct WireTimerSample {
  double value = 0.0;
  std::uint64_t g = 0;
  std::uint64_t delta = 0;
};

struct WireTimer {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<WireTimerSample> samples;
};

struct MetricsUpdate {
  std::vector<WireCounter> counters;
  std::vector<WireGauge> gauges;
  std::vector<WireTimer> timers;

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && timers.empty();
  }
};

struct HeartbeatMsg {
  std::uint64_t lease_id = 0;  // 0 when idle
  std::uint64_t completed = 0;
  /// Optional full-totals metrics block (flag byte on the wire; absent and
  /// engaged-but-empty encode differently and round-trip exactly).
  std::optional<MetricsUpdate> metrics;
};

enum class ShutdownReason : std::uint8_t { kCampaignComplete = 0, kCoordinatorPausing = 1 };

struct ShutdownMsg {
  ShutdownReason reason = ShutdownReason::kCampaignComplete;
};

struct RejectedMsg {
  std::string reason;
};

/// A syntactically valid frame whose type this build does not know.  Kept
/// verbatim so tolerant peers can skip it and decode∘encode stays identity.
struct UnknownMsg {
  std::uint8_t type = 0;
  std::vector<std::uint8_t> payload;
};

using Message = std::variant<HelloMsg, WelcomeMsg, LeaseRequestMsg, LeaseGrantMsg,
                             LeaseResultMsg, HeartbeatMsg, ShutdownMsg, RejectedMsg,
                             UnknownMsg>;

/// Encodes the payload (type byte + body, no length prefix).
std::vector<std::uint8_t> encode(const Message& message);

/// Strict decode of one payload: bounds-checked, counts validated, whole
/// payload consumed.  nullopt on anything malformed; for every accepted
/// payload, encode(*decode(p)) == p.
std::optional<Message> decode(std::span<const std::uint8_t> payload);

/// Length-prefixed frame ready for the socket.
std::vector<std::uint8_t> frame_message(const Message& message);

/// Reassembles frames from an arbitrary chunked byte stream.  A declared
/// length of zero (no type byte) or above `max_payload` poisons the reader:
/// the connection is handed garbage and must be dropped, never resynced.
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Appends stream bytes; returns false (and ignores the bytes) once
  /// poisoned.  Buffered memory stays proportional to one frame.
  bool feed(std::span<const std::uint8_t> bytes);

  /// Pops the next complete payload, if one is buffered.
  std::optional<std::vector<std::uint8_t>> next();

  bool poisoned() const noexcept { return poisoned_; }

 private:
  std::size_t max_payload_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  // bytes of buffer_ already handed out
  bool poisoned_ = false;
};

/// Feeds `reader` every byte the socket has ready: reads until it would
/// block, the peer hangs up (EOF or a read error), or the framing poisons
/// the reader.  Never blocks, even on a blocking socket.  Returns true when
/// the peer has hung up.  Frames that arrived before the hang-up stay
/// buffered in `reader`, so every reader keeps one order: read, decode every
/// buffered frame, then close.
bool read_until_blocked(int fd, FrameReader& reader);

/// Identity of a campaign: workers and coordinator must agree on the exact
/// trial matrix before any lease moves, and a checkpoint must refuse to
/// resume a different campaign.  FNV-1a over the world tag, arm labels,
/// replicas, base seed and simulated budget.
std::uint64_t campaign_fingerprint(const TrialPlan& plan, std::string_view world_tag);

}  // namespace acf::fleet::remote
