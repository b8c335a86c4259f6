// Measurement plumbing of the campaign benchmark: spans and their self time,
// percentile selection, the output digest gate, and a WorldFactory wrapper
// that times each trial's world build, run and destruction.
//
// Nothing here reaches inside the library: every timestamp is taken around
// a call into a public entry point (the WorldFactory, World::run, the
// World's destructor), so the benchmark measures the program as a user
// drives it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fleet/trial.hpp"

namespace perfbench {

/// Nanoseconds on the steady clock (CLOCK_MONOTONIC on Linux, so a parent
/// process can compare it against its own monotonic clock).
std::int64_t now_ns() noexcept;

/// One reported number: a name from BENCHMARK.json, its value and unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// ------------------------------------------------------------------ spans --

/// One timed interval.  `parent` indexes the span that caused it in the same
/// SpanLog (-1 for a root); `trial` is the trial index for the spans of one
/// trial and -1 otherwise; `thread` is the pool thread ordinal (0 = the
/// benchmark's main thread).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::int64_t trial = -1;
  std::uint32_t thread = 0;

  std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

/// A span's duration minus the part of its interval that `children` cover.
/// Children may overlap one another (trials on parallel pool threads under
/// one pool span); covered time is the union of their intervals, clipped to
/// the parent's.
std::int64_t self_time_ns(const Span& span, std::span<const Span> children);

/// Spans kept in memory for the whole run and written out at its end.
/// Single-threaded: pool threads only fill TrialTiming slots, which the main
/// thread turns into spans after the pool has joined.
class SpanLog {
 public:
  std::int64_t add(Span span);
  /// Stamps the end of span `index` with the current time.
  void close(std::int64_t index) { spans_.at(static_cast<std::size_t>(index)).end_ns = now_ns(); }
  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// One JSON object per span and line, with its self time.
  void write_jsonl(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
};

/// Times a main-thread phase into a SpanLog; inert when the log is null
/// (tracing off).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::int64_t parent = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Index the span will have in the log (valid as a parent for spans added
  /// before this one closes); -1 when tracing is off.
  std::int64_t index() const noexcept { return index_; }

 private:
  SpanLog* log_;
  std::int64_t index_ = -1;
};

// ------------------------------------------------------------ percentiles --

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);

/// Samples strictly beyond the nearest-rank p-th percentile of n samples.
std::size_t samples_beyond(std::size_t n, double p) noexcept;

/// The highest percentile of the ladder p50, p90, p99, p99.9 that leaves at
/// least ten samples beyond it; nullopt when even p50 does not.
std::optional<double> tail_percentile(std::size_t n) noexcept;

// ----------------------------------------------------------------- digest --

/// 64-bit FNV-1a over the output bytes.
std::uint64_t digest_of(std::string_view bytes) noexcept;
std::string digest_hex(std::uint64_t digest);

/// The output gate: passes when no expectation is recorded for this
/// workload and seed or when the expectation equals `actual`.
bool digest_gate(const std::optional<std::string>& expected, std::uint64_t actual);

// ----------------------------------------------------------- trial timing --

/// Wall-clock stamps of one trial, taken around the public calls the pool
/// makes: factory (build), World::run (run), ~World (teardown).
struct TrialTiming {
  std::int64_t build_start = 0;
  std::int64_t build_end = 0;
  std::int64_t run_start = 0;
  std::int64_t run_end = 0;
  std::int64_t teardown_start = 0;
  std::int64_t teardown_end = 0;
  std::thread::id thread;

  bool recorded() const noexcept { return teardown_end != 0; }
  std::int64_t wall_ns() const noexcept { return teardown_end - build_start; }
};

/// Wraps a WorldFactory so every trial fills the TrialTiming slot its trial
/// index owns (one writer per slot, read after the pool joins: no locks).
/// `timings` must be sized to the plan and outlive every world built.
acf::fleet::WorldFactory timed_factory(acf::fleet::WorldFactory inner,
                                       std::vector<TrialTiming>& timings);

/// Per pool thread: busy = Σ(build + run + teardown); idle = the wait before
/// its first trial and after its last, inside the pool's [start, end].
/// Threads that ran no trial are idle throughout.  What is neither is the
/// pool's own bookkeeping inside and between trials, so a trial missing from
/// the timings, or two that overlap on one thread, moves busy + idle away
/// from threads × pool wall.
struct PoolAccounting {
  double busy_ns = 0.0;
  double idle_ns = 0.0;
  double capacity_ns = 0.0;  // threads × pool wall

  /// (busy + idle) / capacity; 1 − this is the bookkeeping share.
  double accounted_frac() const noexcept {
    return capacity_ns > 0.0 ? (busy_ns + idle_ns) / capacity_ns : 0.0;
  }
};
PoolAccounting account_pool(std::span<const TrialTiming> timings, unsigned threads,
                            std::int64_t pool_start, std::int64_t pool_end);

/// The accounting gate: the trial spans and the idle ends cover the pool to
/// within 5 %.
bool pool_accounted(const PoolAccounting& pool) noexcept;

}  // namespace perfbench
