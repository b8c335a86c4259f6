// metrics::Registry — named instruments for campaign observability.
//
//  * Counter  — monotonic relaxed-atomic u64; hot-loop safe (one fetch_add).
//  * Gauge    — last-written i64 level (leases outstanding, queue depth).
//  * Meter    — EWMA 1/5/15-interval rates.  The caller drives the clock via
//               tick_to(seconds): sim seconds on deterministic paths, wall
//               seconds only in operator-facing progress display.
//  * Timer    — count/sum/min/max plus a CKMS summary giving ε-accurate
//               p50/p90/p99/p99.9 in constant memory (see ckms.hpp).
//
// The registry hands out stable references: instruments are created under a
// mutex once, then the returned Counter&/Timer& is cached by the caller and
// used lock-free (counters) or under the instrument's own short lock
// (timers record at trial granularity, not per frame).
//
// Determinism contract (DESIGN.md §15): counter values in a final snapshot
// are byte-identical across --threads and --distributed because addition is
// order-independent and every increment is a deterministic function of the
// (plan, seed) trial matrix.  Timer quantiles are ε-accurate but their CKMS
// sample layout depends on completion order, so they are compared within ε,
// never byte-for-byte.  Wall-driven meters are display-only.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/ckms.hpp"

namespace acf::metrics {

class Counter {
 public:
  /// Returns the new total, so a caller can act on exactly every Nth add.
  std::uint64_t add(std::uint64_t n = 1) noexcept {
    return value_.fetch_add(n, std::memory_order_relaxed) + n;
  }
  /// Monotonic advance to an externally tracked total (CAS-max): safe to
  /// re-publish the same running total without double counting.  Name such
  /// counters `*_max`: Registry::absorb combines `*_max` counters with max
  /// (watermark semantics) instead of summing.
  void bump_to(std::uint64_t total) noexcept {
    std::uint64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < total &&
           !value_.compare_exchange_weak(cur, total, std::memory_order_relaxed)) {
    }
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { value_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// EWMA meter in the codahale style: rates decay over 1/5/15 "minutes" of
/// whatever clock the caller advances with tick_to().  Not thread-safe by
/// itself beyond the marked count; tick_to/rates are for a single driver.
class Meter {
 public:
  void mark(std::uint64_t n = 1) noexcept {
    count_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Advances the EWMA clock to `now_seconds` (monotonic per meter).
  void tick_to(double now_seconds);

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double rate1() const noexcept { return m1_; }
  double rate5() const noexcept { return m5_; }
  double rate15() const noexcept { return m15_; }
  /// Lifetime mean rate over the ticked interval (0 before the first tick).
  double mean_rate() const noexcept;

 private:
  static constexpr double kTickSeconds = 5.0;

  std::atomic<std::uint64_t> count_{0};
  std::uint64_t last_counted_ = 0;
  double started_ = 0.0;
  double last_tick_ = 0.0;
  double now_ = 0.0;
  bool primed_ = false;
  double m1_ = 0.0;
  double m5_ = 0.0;
  double m15_ = 0.0;
};

class Timer {
 public:
  /// Records one observation (seconds, latency, whatever the name says).
  void record(double value);

  std::uint64_t count() const noexcept;
  double sum() const noexcept;
  double min() const noexcept;  // 0 when empty
  double max() const noexcept;  // 0 when empty
  double quantile(double q);

  /// Exports the CKMS summary (for snapshots / the wire).
  std::vector<CkmsQuantiles::Sample> export_samples();
  /// Folds a wire summary back in (coordinator-side merge).
  void absorb(std::span<const CkmsQuantiles::Sample> samples, std::uint64_t count,
              double sum, double min, double max);

 private:
  mutable std::mutex mutex_;
  CkmsQuantiles ckms_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// ------------------------------------------------------------ snapshot ----

struct CounterSnap {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSnap {
  std::string name;
  std::int64_t value = 0;
};

struct MeterSnap {
  std::string name;
  std::uint64_t count = 0;
  double m1 = 0.0;
  double m5 = 0.0;
  double m15 = 0.0;
  double mean = 0.0;
};

struct TimerSnap {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  /// Raw CKMS samples; carried on the wire so merges stay ε-accurate,
  /// omitted from JSONL snapshot lines (quantiles suffice there).
  std::vector<CkmsQuantiles::Sample> samples;
};

/// Plain-data view of a registry at one instant, sorted by name within each
/// instrument family.
struct RegistrySnapshot {
  std::vector<CounterSnap> counters;
  std::vector<GaugeSnap> gauges;
  std::vector<MeterSnap> meters;
  std::vector<TimerSnap> timers;

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && meters.empty() && timers.empty();
  }
};

class Registry {
 public:
  /// Returns the named instrument, creating it on first use.  The reference
  /// stays valid for the registry's lifetime (node-stable storage).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Meter& meter(std::string_view name);
  Timer& timer(std::string_view name);

  /// Point-in-time snapshot (sorted by name).  Timers flush their buffers.
  RegistrySnapshot snapshot();

  /// Adds a snapshot into this registry: counters/gauges add (`*_max`
  /// counters take the max), timers CKMS-merge, meters are skipped (rates
  /// do not add across clocks).  The one merge: a world folds its IDS
  /// registry in this way, and the fleet coordinator its workers' totals.
  void absorb(const RegistrySnapshot& snap);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Meter>, std::less<>> meters_;
  std::map<std::string, std::unique_ptr<Timer>, std::less<>> timers_;
};

}  // namespace acf::metrics
