// The shipped detector set, one per monitoring idea the paper's data
// motivates:
//  - AllowlistDetector: unknown ids / unseen DLCs (Table II shows a vehicle
//    bus carries a small fixed id set; full-random fuzz draws from 2048).
//  - DlcConsistencyDetector: the paper's one-line DLC hardening re-expressed
//    as a detector, sharing the DBC-declared DLC with the BCM's predicate.
//  - TimingDetector: per-id inter-arrival EWMA bands (periodic messages have
//    rigid schedules; injected frames land mid-cycle).
//  - RangeDetector: DBC signal bounds (Fig. 8's "negative RPM": random raw
//    bits decode to implausible physical values).
//  - EntropyDetector: per-id payload entropy over a sliding window (fuzz
//    payloads are near-uniform per Fig. 5; real payloads are not, Fig. 4).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "dbc/database.hpp"
#include "ids/detector.hpp"
#include "ids/id_table.hpp"

namespace acf::ids {

/// Flags frames whose id was never seen in training (score 1.0) or whose
/// DLC was never seen for that id (score 0.75).  Can be pre-seeded from a
/// signal database (design knowledge) and extended by training.
class AllowlistDetector final : public Detector {
 public:
  AllowlistDetector();
  /// Pre-seeds the allowlist with every message the database declares.
  explicit AllowlistDetector(const dbc::Database& database);

  std::string_view name() const override { return "allowlist"; }
  void train(const can::CanFrame& frame, sim::SimTime time) override;
  double score(const can::CanFrame& frame, sim::SimTime time) override;

  std::size_t known_ids() const noexcept { return allowed_.size(); }

 private:
  /// id -> bitmask of permitted DLC values (bit d = DLC d allowed).
  IdTable<std::uint16_t> allowed_;
};

/// The paper's Table V hardening as a detector: a frame on a declared id
/// whose DLC differs from the DBC declaration scores 1.0.  Uses the same
/// MessageDef::dlc_matches check the hardened BCM predicate uses, so the
/// prevention path (reject in the ECU) and the detection path (alert on the
/// bus) share one implementation.  Undeclared ids are not its job — compose
/// with AllowlistDetector for those.
class DlcConsistencyDetector final : public Detector {
 public:
  explicit DlcConsistencyDetector(const dbc::Database& database);

  std::string_view name() const override { return "dlc-consistency"; }
  double score(const can::CanFrame& frame, sim::SimTime time) override;

 private:
  IdTable<std::uint8_t> declared_dlc_;
};

/// Per-id inter-arrival frequency detector.  Training learns an EWMA mean
/// gap (smoothing 1/8) and mean absolute deviation per id; ids with at least
/// four training frames get a lower tolerance bound
/// lo = mean - max(4*dev, mean/2), where the mean/2 floor absorbs the
/// arbitration jitter a short training window under-samples.  In detection a
/// frame arriving a gap g < lo after the previous frame of its id scores
/// 1 - g/lo: an injected frame lands mid-cycle and halves the observed gap,
/// while legitimate schedules never dip below the band.  Ids with fewer
/// training frames (event-driven traffic) learn no band.
class TimingDetector final : public Detector {
 public:
  TimingDetector();

  std::string_view name() const override { return "timing"; }
  void train(const can::CanFrame& frame, sim::SimTime time) override;
  void finalize_training() override;
  double score(const can::CanFrame& frame, sim::SimTime time) override;
  void reset() override;

  /// Ids that learned a band (periodic enough to police).
  std::size_t modeled_ids() const noexcept { return bands_.size(); }
  /// The learned lower gap bound for `id` in seconds; <0 when unmodeled.
  double lower_bound_s(std::uint32_t id) const;

 private:
  struct Training {
    std::uint64_t frames = 0;
    sim::SimTime last{0};
    double mean_gap = 0.0;  // seconds
    double mean_dev = 0.0;  // seconds
  };

  IdTable<Training> training_;
  IdTable<double> bands_;  // id -> lo (seconds)
  IdTable<sim::SimTime> last_seen_;
};

/// Signal plausibility detector: decodes every range-declared signal of a
/// declared message and scores the fraction that fall outside [min,max].
/// Stateless after construction; per-frame cost is bounded by the message's
/// signal count.
class RangeDetector final : public Detector {
 public:
  explicit RangeDetector(const dbc::Database& database);

  std::string_view name() const override { return "range"; }
  double score(const can::CanFrame& frame, sim::SimTime time) override;

 private:
  struct RangedMessage {
    std::vector<dbc::SignalDef> signals;  // only signals with declared ranges
  };
  IdTable<RangedMessage> messages_;
};

/// Per-id payload-entropy detector.  Maintains, per id, a sliding window of
/// the last 16 payloads (their first 8 bytes) with incremental byte-value
/// counts, so the Shannon entropy of the window updates in O(payload) per
/// frame (no 256-bin rescan).  The raw score is the window entropy
/// normalized by its maximum (min(8, log2(bytes)) bits), once the window
/// holds 8 frames (a 1-frame "window" would flag every frame of a fresh id);
/// training records a per-id baseline that is subtracted, so naturally
/// high-entropy legitimate signals (counters, CRCs) do not eat the detection
/// margin.  Fuzz payloads are near-uniform (Fig. 5) and score ~1; captured
/// traffic (Fig. 4) scores ~0.
class EntropyDetector final : public Detector {
 public:
  EntropyDetector();

  std::string_view name() const override { return "entropy"; }
  void train(const can::CanFrame& frame, sim::SimTime time) override;
  void finalize_training() override;
  double score(const can::CanFrame& frame, sim::SimTime time) override;
  void reset() override;

  /// Normalized window entropy for `id` right now, in [0,1] (pre-baseline).
  double window_entropy(std::uint32_t id) const;

 private:
  static constexpr std::size_t kWindowFrames = 16;

  /// A window is a trivially copyable ~0.4 KB record.  Counts never exceed
  /// kWindowFrames * 8 = 128 bytes, so they fit in uint8_t.
  struct Window {
    struct Slot {
      std::array<std::uint8_t, can::kMaxClassicPayload> bytes{};
      std::uint8_t length = 0;
    };
    std::array<Slot, kWindowFrames> ring{};
    std::array<std::uint8_t, 256> counts{};
    std::uint8_t head = 0;         // next slot to overwrite
    std::uint8_t frames = 0;       // frames currently in the window
    std::uint8_t bytes_total = 0;  // bytes currently in the window
    double sum_c_log_c = 0.0;      // sum of c*log2(c) over byte values
  };

  static void push(Window& window, const can::CanFrame& frame);
  static double normalized_entropy(const Window& window);

  IdTable<Window> windows_;
  IdTable<double> baseline_;
};

/// The standard four-detector set over `database` (allowlist seeded from the
/// database, timing, range, entropy).
std::vector<std::unique_ptr<Detector>> standard_detectors(const dbc::Database& database);

}  // namespace acf::ids
