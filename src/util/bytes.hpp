// Little-endian byte codec shared by the repo's binary formats: the fleet
// wire protocol and the feedback corpus files.  The reader follows the
// hardened discipline of DESIGN.md §13: a bounds-checked cursor that can
// only fail closed (the first short read latches !ok() and every later read
// returns zero), so decoders check ok() once per record instead of once per
// field.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace acf::util {

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool ok() const noexcept { return ok_; }
  std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  bool done() const noexcept { return ok_ && remaining() == 0; }

  std::uint8_t u8() { return take(1) ? bytes_[pos_++] : 0; }
  std::uint32_t u32() { return static_cast<std::uint32_t>(little_endian(4)); }
  std::uint64_t u64() { return little_endian(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }  // exact, canonical
  /// Declared element count (u32) for elements of at least `min_bytes`
  /// each, capped at `max`.  A count the bytes left cannot hold promises
  /// bytes that do not exist: it latches !ok() and returns 0, so a hostile
  /// count never reaches an allocation.
  std::uint32_t count(std::size_t min_bytes, std::size_t max = UINT32_MAX) {
    const std::uint32_t n = u32();
    if (n > max || n > remaining() / min_bytes) ok_ = false;
    return ok_ ? n : 0;
  }
  /// Length-prefixed string (u32 + bytes), capped at `max_bytes`.
  std::string str(std::size_t max_bytes) {
    const std::uint32_t len = u32();
    if (len > max_bytes || !take(len)) {
      ok_ = false;
      return {};
    }
    pos_ += len;
    return {reinterpret_cast<const char*>(bytes_.data() + pos_ - len), len};
  }

 private:
  bool take(std::size_t n) noexcept {
    ok_ = ok_ && n <= remaining();
    return ok_;
  }
  std::uint64_t little_endian(std::size_t width) {
    if (!take(width)) return 0;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) v |= std::uint64_t{bytes_[pos_++]} << (8 * i);
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { little_endian(v, 4); }
  void u64(std::uint64_t v) { little_endian(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  /// Appends bytes verbatim, with no length prefix.
  void raw(std::span<const std::uint8_t> bytes) {
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }

  std::vector<std::uint8_t> take() { return std::move(out_); }
  const std::vector<std::uint8_t>& bytes() const noexcept { return out_; }

 private:
  void little_endian(std::uint64_t v, std::size_t width) {
    for (std::size_t i = 0; i < width; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  std::vector<std::uint8_t> out_;
};

}  // namespace acf::util
