#include "dbc/parser.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace acf::dbc {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Consumes the next whitespace-delimited token.
std::string_view next_token(std::string_view& s) {
  s = trim(s);
  std::size_t end = 0;
  while (end < s.size() && s[end] != ' ' && s[end] != '\t') ++end;
  const std::string_view token = s.substr(0, end);
  s.remove_prefix(end);
  return token;
}

template <typename T>
bool parse_number(std::string_view token, T& out) {
  const char* begin = token.data();
  const char* end = begin + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

/// A finite decimal number.  from_chars also reads "nan" and "inf", but no
/// signal factor, offset or range may be non-finite: the linear map would
/// turn every raw value into NaN or ±inf.
bool parse_double(std::string_view token, double& out) {
  return parse_number(token, out) && std::isfinite(out);
}

struct SignalLine {
  SignalDef def;
  bool ok = false;
  std::string error;
};

/// " SG_ Name : 8|16@1+ (0.25,0) [0|8000] "rpm" RX1,RX2"
SignalLine parse_signal(std::string_view rest) {
  SignalLine out;
  std::string_view s = rest;
  const std::string_view name = next_token(s);
  if (name.empty()) {
    out.error = "missing signal name";
    return out;
  }
  out.def.name = std::string(name);
  std::string_view colon = next_token(s);
  if (colon != ":") {
    // Multiplexer indicators ("M", "m0") sit between name and colon; accept
    // and ignore them.
    colon = next_token(s);
    if (colon != ":") {
      out.error = "expected ':'";
      return out;
    }
  }
  // start|len@order sign
  const std::string_view layout = next_token(s);
  const std::size_t pipe = layout.find('|');
  const std::size_t at = layout.find('@');
  if (pipe == std::string_view::npos || at == std::string_view::npos || at + 2 > layout.size()) {
    out.error = "bad layout '" + std::string(layout) + "'";
    return out;
  }
  std::uint16_t start = 0;
  std::uint16_t length = 0;
  if (!parse_number(layout.substr(0, pipe), start) ||
      !parse_number(layout.substr(pipe + 1, at - pipe - 1), length) || length == 0 ||
      length > 64) {
    out.error = "bad start/length in '" + std::string(layout) + "'";
    return out;
  }
  out.def.start_bit = start;
  out.def.bit_length = length;
  const char order = layout[at + 1];
  out.def.byte_order = (order == '1') ? ByteOrder::kLittleEndian : ByteOrder::kBigEndian;
  if (at + 2 < layout.size()) out.def.is_signed = layout[at + 2] == '-';

  // (scale,offset)
  const std::string_view factors = next_token(s);
  if (factors.size() >= 3 && factors.front() == '(' && factors.back() == ')') {
    const std::string_view inner = factors.substr(1, factors.size() - 2);
    const std::size_t comma = inner.find(',');
    double scale = 1.0;
    double offset = 0.0;
    if (comma == std::string_view::npos || !parse_double(inner.substr(0, comma), scale) ||
        !parse_double(inner.substr(comma + 1), offset)) {
      out.error = "bad factors '" + std::string(factors) + "'";
      return out;
    }
    out.def.scale = scale;
    out.def.offset = offset;
  }

  // [min|max]
  const std::string_view range = next_token(s);
  if (range.size() >= 3 && range.front() == '[' && range.back() == ']') {
    const std::string_view inner = range.substr(1, range.size() - 2);
    const std::size_t pipe2 = inner.find('|');
    double lo = 0.0;
    double hi = 0.0;
    if (pipe2 == std::string_view::npos || !parse_double(inner.substr(0, pipe2), lo) ||
        !parse_double(inner.substr(pipe2 + 1), hi)) {
      out.error = "bad range '" + std::string(range) + "'";
      return out;
    }
    out.def.min = lo;
    out.def.max = hi;
  }

  // "unit"
  s = trim(s);
  if (!s.empty() && s.front() == '"') {
    const std::size_t close = s.find('"', 1);
    if (close != std::string_view::npos) {
      out.def.unit = std::string(s.substr(1, close - 1));
    }
  }
  out.ok = true;
  return out;
}

/// Shortest round-trip rendering for signal factors/ranges: %g's six
/// significant digits turn 16383.9921875 into 16384, so a parse→print→parse
/// cycle would silently change declared ranges.  to_chars emits the shortest
/// string that reparses to the identical double (a non-finite value prints
/// as "inf"/"nan", which the parser rejects).
std::string fmt_g(double value) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc{} ? std::string(buf, ptr) : std::string("0");
}

}  // namespace

ParseResult parse_dbc(std::string_view text) {
  ParseResult result;
  MessageDef current;
  bool in_message = false;
  int line_no = 0;

  auto flush = [&] {
    if (in_message) result.database.add(std::move(current));
    current = MessageDef{};
    in_message = false;
  };

  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view raw_line =
        text.substr(pos, nl == std::string_view::npos ? text.size() - pos : nl - pos);
    pos = (nl == std::string_view::npos) ? text.size() + 1 : nl + 1;
    ++line_no;
    std::string_view line = trim(raw_line);
    if (line.empty()) continue;

    std::string_view s = line;
    const std::string_view keyword = next_token(s);

    if (keyword == "BU_:") {
      for (std::string_view node = next_token(s); !node.empty(); node = next_token(s)) {
        result.nodes.emplace_back(node);
      }
    } else if (keyword == "BO_") {
      flush();
      const std::string_view id_token = next_token(s);
      std::string_view name_token = next_token(s);
      const std::string_view dlc_token = next_token(s);
      const std::string_view sender = next_token(s);
      std::uint32_t id = 0;
      std::uint32_t dlc = 0;
      if (!parse_number(id_token, id) || name_token.empty() || !parse_number(dlc_token, dlc) ||
          dlc > can::kMaxClassicPayload) {
        result.errors.push_back("line " + std::to_string(line_no) + ": bad BO_ line");
        continue;
      }
      if (name_token.back() == ':') name_token.remove_suffix(1);
      // Bit 31 set marks an extended id in DBC files.
      current.format =
          (id & 0x80000000u) != 0 ? can::IdFormat::kExtended : can::IdFormat::kStandard;
      current.id = id & 0x1FFFFFFFu;
      current.name = std::string(name_token);
      current.dlc = static_cast<std::uint8_t>(dlc);
      current.sender = std::string(sender);
      in_message = true;
    } else if (keyword == "SG_") {
      if (!in_message) {
        result.errors.push_back("line " + std::to_string(line_no) + ": SG_ outside BO_");
        continue;
      }
      SignalLine sig = parse_signal(s);
      if (!sig.ok) {
        result.errors.push_back("line " + std::to_string(line_no) + ": " + sig.error);
        continue;
      }
      if (!sig.def.fits(current.dlc)) {
        result.errors.push_back("line " + std::to_string(line_no) + ": signal '" +
                                sig.def.name + "' exceeds message DLC");
        continue;
      }
      current.signals.push_back(std::move(sig.def));
    } else if (keyword == "BA_") {
      // BA_ "GenMsgCycleTime" BO_ <id> <ms>;
      std::string_view attr = next_token(s);
      if (attr == "\"GenMsgCycleTime\"") {
        const std::string_view kind = next_token(s);
        const std::string_view id_token = next_token(s);
        std::string_view value_token = next_token(s);
        if (!value_token.empty() && value_token.back() == ';') value_token.remove_suffix(1);
        std::uint32_t id = 0;
        std::uint32_t ms = 0;
        if (kind == "BO_" && parse_number(id_token, id) && parse_number(value_token, ms)) {
          flush();  // attributes come after all BO_ blocks; close any open one
          if (const MessageDef* existing = result.database.by_id(id & 0x1FFFFFFFu)) {
            MessageDef updated = *existing;
            updated.cycle_time_ms = ms;
            result.database.add(std::move(updated));
          }
        }
      }
    }
    // VERSION, CM_, VAL_, NS_ blocks etc. are intentionally skipped.
  }
  flush();
  return result;
}

std::string to_dbc_text(const Database& database, std::span<const std::string> nodes) {
  std::ostringstream out;
  out << "VERSION \"\"\n\nBU_:";
  for (const auto& node : nodes) out << ' ' << node;
  out << "\n\n";
  for (const auto& message : database.messages()) {
    const std::uint32_t id =
        message.format == can::IdFormat::kExtended ? (message.id | 0x80000000u) : message.id;
    out << "BO_ " << id << ' ' << message.name << ": " << static_cast<unsigned>(message.dlc)
        << ' ' << (message.sender.empty() ? "Vector__XXX" : message.sender) << '\n';
    for (const auto& sig : message.signals) {
      // Streamed, not snprintf'd into a fixed buffer: a long signal name or
      // unit must not silently truncate the line into unparseable output.
      out << " SG_ " << sig.name << " : " << sig.start_bit << '|' << sig.bit_length << '@'
          << (sig.byte_order == ByteOrder::kLittleEndian ? '1' : '0')
          << (sig.is_signed ? '-' : '+') << " (" << fmt_g(sig.scale) << ','
          << fmt_g(sig.offset) << ") [" << fmt_g(sig.min) << '|' << fmt_g(sig.max) << "] \""
          << sig.unit << "\" Vector__XXX\n";
    }
    out << '\n';
  }
  for (const auto& message : database.messages()) {
    if (message.cycle_time_ms != 0) {
      out << "BA_ \"GenMsgCycleTime\" BO_ " << message.id << ' ' << message.cycle_time_ms
          << ";\n";
    }
  }
  return out.str();
}

}  // namespace acf::dbc
