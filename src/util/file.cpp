#include "util/file.hpp"

#include <cstdio>

namespace acf::util {

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  std::uint8_t chunk[4096];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof chunk, file)) > 0) {
    bytes.insert(bytes.end(), chunk, chunk + got);
  }
  const bool failed = std::ferror(file) != 0;
  std::fclose(file);
  if (failed) return std::nullopt;
  return bytes;
}

bool write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const bool written = std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  // fclose flushes the last buffer: its result is the write's.
  return std::fclose(file) == 0 && written;
}

bool replace_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  return write_file(tmp, bytes) && std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace acf::util
