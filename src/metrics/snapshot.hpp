// acf-metrics-v1: the versioned JSONL snapshot stream a campaign emits so a
// long-running fleet is observable live.  One self-contained JSON object per
// line, pure-ASCII (util::json_escape rules, shared with JsonlExporter),
// doubles printed shortest-round-trip so encode∘parse∘encode is a fixed
// point.  parse_snapshot_line is the repo's eleventh hand-rolled parser and
// is fuzzed like the other ten (metrics_snapshot self-fuzz target).
//
// Line shape (keys in this canonical order, maps sorted by name):
//   {"schema":"acf-metrics-v1","seq":3,"source":"coordinator",
//    "sim_seconds":120.5,
//    "counters":{"fleet.trial.completed":24,...},
//    "gauges":{"fleet.leases.outstanding":2,...},
//    "meters":{"fleet.progress.trials":{"count":24,"m1":1.5,"m5":0.4,
//              "m15":0.1,"mean":1.2},...},
//    "timers":{"ids.latency.timing-ewma":{"count":24,"sum":1.2,"min":0.001,
//              "max":0.5,"p50":0.01,"p90":0.2,"p99":0.4,"p999":0.5},...}}
//
// Raw CKMS samples never appear in the JSONL stream (quantiles suffice for
// observers); they travel only inside Heartbeat frames for merging.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "metrics/metrics.hpp"

namespace acf::metrics {

inline constexpr std::string_view kSnapshotSchema = "acf-metrics-v1";

/// One decoded snapshot line.  `registry.samples` stays empty: the line
/// format carries quantiles, not raw CKMS state.
struct SnapshotLine {
  std::uint64_t seq = 0;
  std::string source;
  double sim_seconds = 0.0;
  RegistrySnapshot registry;
};

/// Canonical single-line encoding (no trailing newline).  Non-finite
/// doubles render as 0 — upstream never produces them, and the parser
/// rejects non-finite spellings, so accepted lines round-trip exactly.
std::string encode_snapshot_line(const SnapshotLine& line);

/// Strict parse of one snapshot line: schema must match, all four
/// instrument maps and the header keys must be present exactly once,
/// unknown or duplicate keys reject, every number bounds-checked and
/// finite.  For every accepted line, encoding the result and parsing again
/// yields the same value (fixed point after one canonicalizing encode).
std::optional<SnapshotLine> parse_snapshot_line(std::string_view text);

/// One-shot operator-facing table of a snapshot (counters, gauges, meter
/// rates, timer quantiles), aligned and sorted by name.
std::string render_table(const RegistrySnapshot& snap);

/// Serializes snapshots to a JSONL stream with a monotonically increasing
/// sequence number.  Thread-safe; the stream must outlive the writer.
class SnapshotWriter {
 public:
  SnapshotWriter(std::ostream& out, std::string source)
      : out_(out), source_(std::move(source)) {}

  /// Writes one line and flushes (live observers tail the file).
  void write(const RegistrySnapshot& snap, double sim_seconds);

 private:
  std::mutex mutex_;
  std::ostream& out_;
  std::string source_;
  std::uint64_t seq_ = 0;
};

}  // namespace acf::metrics
