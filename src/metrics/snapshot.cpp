#include "metrics/snapshot.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <vector>

#include "util/json.hpp"

namespace acf::metrics {

namespace {

using util::json_double;
using util::json_escape;

// ----------------------------------------------------------- encoding -----

void append_string(std::string& out, std::string_view s) {
  out += '"';
  out += json_escape(s);
  out += '"';
}

template <typename Items, typename Fn>
void append_map(std::string& out, std::string_view key, const Items& items,
                Fn&& emit_value) {
  append_string(out, key);
  out += ":{";
  bool first = true;
  for (const auto& item : items) {
    if (!first) out += ',';
    first = false;
    append_string(out, item.name);
    out += ':';
    emit_value(out, item);
  }
  out += '}';
}

// ------------------------------------------------------------ parsing -----

/// Tiny strict cursor over one line.  Whitespace between tokens is
/// tolerated (and normalized away by re-encoding); structure is not.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool peek(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool done() {
    skip_ws();
    return pos_ == text_.size();
  }

  /// Quoted string, unescaped.
  std::optional<std::string> string() {
    if (!eat('"')) return std::nullopt;
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        const std::string_view raw = text_.substr(start, pos_ - start);
        ++pos_;
        return util::json_unescape(raw);
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return std::nullopt;
      }
      ++pos_;
    }
    return std::nullopt;  // unterminated
  }

  std::optional<std::uint64_t> u64() {
    skip_ws();
    std::uint64_t value = 0;
    const auto result =
        std::from_chars(text_.data() + pos_, text_.data() + text_.size(), value);
    if (result.ec != std::errc{} || result.ptr == text_.data() + pos_) {
      return std::nullopt;
    }
    pos_ = static_cast<std::size_t>(result.ptr - text_.data());
    return value;
  }

  std::optional<std::int64_t> i64() {
    skip_ws();
    std::int64_t value = 0;
    const auto result =
        std::from_chars(text_.data() + pos_, text_.data() + text_.size(), value);
    if (result.ec != std::errc{} || result.ptr == text_.data() + pos_) {
      return std::nullopt;
    }
    pos_ = static_cast<std::size_t>(result.ptr - text_.data());
    return value;
  }

  std::optional<double> number() {
    skip_ws();
    // Reject the inf/nan spellings from_chars would accept: JSON has no
    // non-finite numbers and neither does an honest snapshot.
    if (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == 'i' || c == 'I' || c == 'n' || c == 'N' || c == '+') {
        return std::nullopt;
      }
      if ((c == '-') && pos_ + 1 < text_.size()) {
        const char d = text_[pos_ + 1];
        if (d == 'i' || d == 'I' || d == 'n' || d == 'N') return std::nullopt;
      }
    }
    double value = 0.0;
    const auto result =
        std::from_chars(text_.data() + pos_, text_.data() + text_.size(), value);
    if (result.ec != std::errc{} || result.ptr == text_.data() + pos_ ||
        !std::isfinite(value)) {
      return std::nullopt;
    }
    pos_ = static_cast<std::size_t>(result.ptr - text_.data());
    return value;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Parses `{"name":<value>,...}` with `parse_entry` consuming each value.
/// Rejects duplicate names; output ends up sorted by the caller.
template <typename Fn>
bool parse_named_map(Cursor& cur, Fn&& parse_entry) {
  if (!cur.eat('{')) return false;
  if (cur.eat('}')) return true;
  for (;;) {
    std::optional<std::string> name = cur.string();
    if (!name || !cur.eat(':')) return false;
    if (!parse_entry(std::move(*name))) return false;
    if (cur.eat(',')) continue;
    return cur.eat('}');
  }
}

/// Parses a fixed-key-set object of numeric fields: every key in `keys`
/// exactly once, no extras.  `slots[i]` receives the value for `keys[i]`.
bool parse_numeric_object(Cursor& cur, std::span<const std::string_view> keys,
                          std::span<double> slots,
                          std::span<std::uint64_t> u64_slots,
                          std::size_t u64_count) {
  // The first `u64_count` keys are u64 fields, the rest doubles.
  std::vector<bool> seen(keys.size(), false);
  if (!cur.eat('{')) return false;
  if (cur.eat('}')) return keys.empty();
  for (;;) {
    std::optional<std::string> key = cur.string();
    if (!key || !cur.eat(':')) return false;
    std::size_t idx = keys.size();
    for (std::size_t k = 0; k < keys.size(); ++k) {
      if (*key == keys[k]) {
        idx = k;
        break;
      }
    }
    if (idx == keys.size() || seen[idx]) return false;
    seen[idx] = true;
    if (idx < u64_count) {
      std::optional<std::uint64_t> v = cur.u64();
      if (!v) return false;
      u64_slots[idx] = *v;
    } else {
      std::optional<double> v = cur.number();
      if (!v) return false;
      slots[idx - u64_count] = *v;
    }
    if (cur.eat(',')) continue;
    if (!cur.eat('}')) return false;
    break;
  }
  return std::all_of(seen.begin(), seen.end(), [](bool b) { return b; });
}

}  // namespace

std::string encode_snapshot_line(const SnapshotLine& line) {
  std::string out;
  out.reserve(256);
  out += "{\"schema\":\"";
  out += kSnapshotSchema;
  out += "\",\"seq\":";
  out += std::to_string(line.seq);
  out += ",\"source\":";
  append_string(out, line.source);
  out += ",\"sim_seconds\":";
  out += json_double(line.sim_seconds);
  out += ',';
  append_map(out, "counters", line.registry.counters,
             [](std::string& o, const CounterSnap& c) {
               o += std::to_string(c.value);
             });
  out += ',';
  append_map(out, "gauges", line.registry.gauges,
             [](std::string& o, const GaugeSnap& g) {
               o += std::to_string(g.value);
             });
  out += ',';
  append_map(out, "meters", line.registry.meters,
             [](std::string& o, const MeterSnap& m) {
               o += "{\"count\":";
               o += std::to_string(m.count);
               o += ",\"m1\":";
               o += json_double(m.m1);
               o += ",\"m5\":";
               o += json_double(m.m5);
               o += ",\"m15\":";
               o += json_double(m.m15);
               o += ",\"mean\":";
               o += json_double(m.mean);
               o += '}';
             });
  out += ',';
  append_map(out, "timers", line.registry.timers,
             [](std::string& o, const TimerSnap& t) {
               o += "{\"count\":";
               o += std::to_string(t.count);
               o += ",\"sum\":";
               o += json_double(t.sum);
               o += ",\"min\":";
               o += json_double(t.min);
               o += ",\"max\":";
               o += json_double(t.max);
               o += ",\"p50\":";
               o += json_double(t.p50);
               o += ",\"p90\":";
               o += json_double(t.p90);
               o += ",\"p99\":";
               o += json_double(t.p99);
               o += ",\"p999\":";
               o += json_double(t.p999);
               o += '}';
             });
  out += '}';
  return out;
}

std::optional<SnapshotLine> parse_snapshot_line(std::string_view text) {
  // Hard ceiling: one line describes at most a few thousand instruments; a
  // multi-megabyte "line" is hostile input, not a snapshot.
  if (text.size() > (1u << 20)) return std::nullopt;
  Cursor cur(text);
  SnapshotLine line;
  bool saw_schema = false, saw_seq = false, saw_source = false, saw_sim = false;
  bool saw_counters = false, saw_gauges = false, saw_meters = false,
       saw_timers = false;

  if (!cur.eat('{')) return std::nullopt;
  for (;;) {
    std::optional<std::string> key = cur.string();
    if (!key || !cur.eat(':')) return std::nullopt;
    if (*key == "schema") {
      if (saw_schema) return std::nullopt;
      saw_schema = true;
      std::optional<std::string> schema = cur.string();
      if (!schema || *schema != kSnapshotSchema) return std::nullopt;
    } else if (*key == "seq") {
      if (saw_seq) return std::nullopt;
      saw_seq = true;
      std::optional<std::uint64_t> v = cur.u64();
      if (!v) return std::nullopt;
      line.seq = *v;
    } else if (*key == "source") {
      if (saw_source) return std::nullopt;
      saw_source = true;
      std::optional<std::string> v = cur.string();
      if (!v) return std::nullopt;
      line.source = std::move(*v);
    } else if (*key == "sim_seconds") {
      if (saw_sim) return std::nullopt;
      saw_sim = true;
      std::optional<double> v = cur.number();
      if (!v) return std::nullopt;
      line.sim_seconds = *v;
    } else if (*key == "counters") {
      if (saw_counters) return std::nullopt;
      saw_counters = true;
      const bool ok = parse_named_map(cur, [&](std::string name) {
        std::optional<std::uint64_t> v = cur.u64();
        if (!v) return false;
        line.registry.counters.push_back({std::move(name), *v});
        return true;
      });
      if (!ok) return std::nullopt;
    } else if (*key == "gauges") {
      if (saw_gauges) return std::nullopt;
      saw_gauges = true;
      const bool ok = parse_named_map(cur, [&](std::string name) {
        std::optional<std::int64_t> v = cur.i64();
        if (!v) return false;
        line.registry.gauges.push_back({std::move(name), *v});
        return true;
      });
      if (!ok) return std::nullopt;
    } else if (*key == "meters") {
      if (saw_meters) return std::nullopt;
      saw_meters = true;
      static constexpr std::string_view kKeys[] = {"count", "m1", "m5", "m15",
                                                   "mean"};
      const bool ok = parse_named_map(cur, [&](std::string name) {
        double d[4] = {};
        std::uint64_t u[1] = {};
        if (!parse_numeric_object(cur, kKeys, d, u, 1)) return false;
        line.registry.meters.push_back(
            {std::move(name), u[0], d[0], d[1], d[2], d[3]});
        return true;
      });
      if (!ok) return std::nullopt;
    } else if (*key == "timers") {
      if (saw_timers) return std::nullopt;
      saw_timers = true;
      static constexpr std::string_view kKeys[] = {
          "count", "sum", "min", "max", "p50", "p90", "p99", "p999"};
      const bool ok = parse_named_map(cur, [&](std::string name) {
        double d[7] = {};
        std::uint64_t u[1] = {};
        if (!parse_numeric_object(cur, kKeys, d, u, 1)) return false;
        TimerSnap t;
        t.name = std::move(name);
        t.count = u[0];
        t.sum = d[0];
        t.min = d[1];
        t.max = d[2];
        t.p50 = d[3];
        t.p90 = d[4];
        t.p99 = d[5];
        t.p999 = d[6];
        line.registry.timers.push_back(std::move(t));
        return true;
      });
      if (!ok) return std::nullopt;
    } else {
      return std::nullopt;  // unknown key: this is a versioned format
    }
    if (cur.eat(',')) continue;
    if (!cur.eat('}')) return std::nullopt;
    break;
  }
  if (!cur.done()) return std::nullopt;
  if (!(saw_schema && saw_seq && saw_source && saw_sim && saw_counters &&
        saw_gauges && saw_meters && saw_timers)) {
    return std::nullopt;
  }

  // Canonicalize: maps sorted by name, duplicates rejected (a duplicate
  // would silently drop data on re-encode).
  const auto sort_unique = [](auto& items) {
    std::sort(items.begin(), items.end(),
              [](const auto& a, const auto& b) { return a.name < b.name; });
    return std::adjacent_find(items.begin(), items.end(),
                              [](const auto& a, const auto& b) {
                                return a.name == b.name;
                              }) == items.end();
  };
  if (!sort_unique(line.registry.counters)) return std::nullopt;
  if (!sort_unique(line.registry.gauges)) return std::nullopt;
  if (!sort_unique(line.registry.meters)) return std::nullopt;
  if (!sort_unique(line.registry.timers)) return std::nullopt;
  return line;
}

// -------------------------------------------------------------- table -----

std::string render_table(const RegistrySnapshot& snap) {
  std::string out;
  const auto row = [&out](std::string_view name, const std::string& value) {
    char buffer[160];
    std::snprintf(buffer, sizeof buffer, "  %-40.*s %s\n",
                  static_cast<int>(name.size()), name.data(), value.c_str());
    out += buffer;
  };
  if (!snap.counters.empty()) {
    out += "counters:\n";
    for (const CounterSnap& c : snap.counters) {
      row(c.name, std::to_string(c.value));
    }
  }
  if (!snap.gauges.empty()) {
    out += "gauges:\n";
    for (const GaugeSnap& g : snap.gauges) row(g.name, std::to_string(g.value));
  }
  if (!snap.meters.empty()) {
    out += "meters:\n";
    for (const MeterSnap& m : snap.meters) {
      char buffer[120];
      std::snprintf(buffer, sizeof buffer,
                    "count=%llu m1=%.3f m5=%.3f m15=%.3f mean=%.3f",
                    static_cast<unsigned long long>(m.count), m.m1, m.m5, m.m15,
                    m.mean);
      row(m.name, buffer);
    }
  }
  if (!snap.timers.empty()) {
    out += "timers:\n";
    for (const TimerSnap& t : snap.timers) {
      char buffer[160];
      std::snprintf(buffer, sizeof buffer,
                    "count=%llu p50=%.6g p90=%.6g p99=%.6g p99.9=%.6g "
                    "min=%.6g max=%.6g",
                    static_cast<unsigned long long>(t.count), t.p50, t.p90,
                    t.p99, t.p999, t.min, t.max);
      row(t.name, buffer);
    }
  }
  if (out.empty()) out = "  (no instruments)\n";
  return out;
}

// ------------------------------------------------------------- writer -----

void SnapshotWriter::write(const RegistrySnapshot& snap, double sim_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  SnapshotLine line;
  // 1-based: the stamp on a line is the number of lines written so far, so
  // a reader can detect gaps and the final line's seq is the line count.
  line.seq = ++seq_;
  line.source = source_;
  line.sim_seconds = sim_seconds;
  // The JSONL stream carries quantiles, not raw CKMS samples; strip them
  // without copying the whole snapshot.
  line.registry.counters = snap.counters;
  line.registry.gauges = snap.gauges;
  line.registry.meters = snap.meters;
  line.registry.timers.reserve(snap.timers.size());
  for (const TimerSnap& t : snap.timers) {
    TimerSnap lean = t;
    lean.samples.clear();
    line.registry.timers.push_back(std::move(lean));
  }
  out_ << encode_snapshot_line(line) << '\n';
  out_.flush();
}

}  // namespace acf::metrics
