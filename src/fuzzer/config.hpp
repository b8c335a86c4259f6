// FuzzConfig: the programmatic equivalent of the paper's fuzzer UI (Fig. 3),
// exposing exactly the Table III knobs — CAN id space, payload length,
// per-position payload byte ranges, and the transmission interval.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "can/frame.hpp"
#include "sim/time.hpp"

namespace acf::fuzzer {

/// Inclusive byte-value bounds for one payload position.
struct ByteRange {
  std::uint8_t lo = 0x00;
  std::uint8_t hi = 0xFF;
  std::uint64_t count() const noexcept { return lo <= hi ? hi - lo + 1ULL : 0; }
  bool contains(std::uint8_t value) const noexcept { return value >= lo && value <= hi; }
};

struct FuzzConfig {
  // --- id selection (Table III row "CAN Id": {0,1,...,2047}) --------------
  std::uint32_t id_min = 0;
  std::uint32_t id_max = can::kMaxStandardId;
  /// When non-empty, ids are drawn from this set instead of [id_min,id_max]
  /// (targeted fuzzing "around known message ids monitored on the bus").
  std::vector<std::uint32_t> id_set;
  bool extended_ids = false;

  // --- payload length (Table III row "Payload length": {0,...,8}) ---------
  std::uint8_t dlc_min = 0;
  std::uint8_t dlc_max = 8;

  // --- payload bytes (Table III row "Payload byte") ------------------------
  std::array<ByteRange, can::kMaxClassicPayload> byte_ranges{};

  // --- rate (Table III row "Rate": vary transmission interval) ------------
  /// The paper's fuzzer has a 1 ms minimum period; so does ours by default.
  sim::Duration tx_period{std::chrono::milliseconds(1)};

  // --- mode ----------------------------------------------------------------
  /// CAN FD generation (paper §VII future work, ablation A4): dlc_max may
  /// then be up to 15 (FD DLC codes).
  bool fd_mode = false;

  /// Seed for the deterministic generator stream.
  std::uint64_t seed = 0xACF0;

  // --- helpers --------------------------------------------------------------
  /// Unrestricted classic-CAN fuzz over the whole Table III space.
  static FuzzConfig full_random(std::uint64_t seed = 0xACF0);
  /// Targeted config drawing ids only from `ids`.
  static FuzzConfig targeted(std::vector<std::uint32_t> ids, std::uint64_t seed = 0xACF0);
  /// Fuzz "around" a known id: [id-radius, id+radius] clamped to 11 bits.
  static FuzzConfig around_id(std::uint32_t id, std::uint32_t radius,
                              std::uint64_t seed = 0xACF0);

  /// Number of distinct ids this config can emit.
  std::uint64_t id_space() const noexcept;
  /// Number of distinct (id, dlc, payload) combinations — the combinatorial
  /// space the paper's §V works through (may saturate at uint64 max).
  std::uint64_t frame_space() const noexcept;
  /// Time to transmit the whole space once at tx_period (saturates).
  sim::Duration exhaust_time() const noexcept;

  /// True if `frame` could have been produced under this config (used by
  /// the containment property tests).
  bool contains(const can::CanFrame& frame) const noexcept;

  /// Human-readable summary (bench_table3 prints this).
  std::string describe() const;
};

}  // namespace acf::fuzzer
