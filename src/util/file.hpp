// Whole-file byte I/O for the repo's on-disk records (fleet checkpoints,
// feedback corpora).  A write reports success only once the file is closed,
// so bytes that never reached the disk (ENOSPC, EIO on the final flush) fail
// the save instead of passing silently.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace acf::util {

/// The file's bytes, or nullopt when it cannot be opened or read.
std::optional<std::vector<std::uint8_t>> read_file(const std::string& path);

/// Truncates `path` and writes `bytes`; true only when every byte was
/// written and the close succeeded.
bool write_file(const std::string& path, std::span<const std::uint8_t> bytes);

/// Writes `path.tmp`, then renames it over `path`: a writer killed mid-save
/// or a failed write leaves the previous file intact.
bool replace_file(const std::string& path, std::span<const std::uint8_t> bytes);

}  // namespace acf::util
