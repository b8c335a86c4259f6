// ids::IdTable: per-CAN-id state for the detectors and the pipeline's alert
// cooldowns.  Internal to src/ids/ — not part of the public IDS surface.
//
// Every detector keeps a little state per id and looks it up on every bus
// frame.  Standard ids (0..0x7FF) resolve through a flat 2048-slot index
// into chunked element storage.  The index is allocated on first insert,
// 64 slots at a time, so a table holding a vehicle's few dozen ids costs
// about 1 KB of index rather than 4 KB.  The storage grows 16 elements at a
// time instead of reserving room for all 2048 ids, and never moves an
// element once placed, so a returned pointer stays valid across later
// inserts (until clear()).  Ids above 0x7FF (29-bit only) fall back to a
// hash map, whose nodes are just as stable.
//
// The key is the numeric id alone, not the format: a 29-bit frame whose id
// is <= 0x7FF shares state with the 11-bit message of that number.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "can/frame.hpp"

namespace acf::ids {

template <typename T>
class IdTable {
 public:
  /// The value stored for `id`, or null.
  const T* find(std::uint32_t id) const noexcept {
    if (id > can::kMaxStandardId) {
      const auto it = extended_.find(id);
      return it == extended_.end() ? nullptr : &it->second;
    }
    const std::size_t position = position_of(id);
    return position == 0 ? nullptr : &entry(position - 1).value;
  }
  T* find(std::uint32_t id) noexcept { return const_cast<T*>(std::as_const(*this).find(id)); }

  /// Constructs a value from `args` under `id` unless the id is present
  /// (std::unordered_map::try_emplace): returns the stored value and whether
  /// this call inserted it.
  template <typename... Args>
  std::pair<T*, bool> try_emplace(std::uint32_t id, Args&&... args) {
    if (id <= can::kMaxStandardId) {
      const std::size_t position = position_of(id);
      if (position != 0) return {&entry(position - 1).value, false};
    }
    return insert(id, std::forward<Args>(args)...);
  }

  /// The value for `id`, value-initialised first when absent.
  T& operator[](std::uint32_t id) { return *try_emplace(id).first; }

  std::size_t size() const noexcept { return size_ + extended_.size(); }

  /// Removes every id; keeps the index and chunks for the next inserts.
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) {
      index_slot(entry(i).id) = 0;
      entry(i).value = T{};
    }
    size_ = 0;
    extended_.clear();
  }

  /// Calls fn(id, value) for every id: standard ids in insertion order,
  /// then 29-bit ids in hash order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) fn(entry(i).id, std::as_const(entry(i).value));
    for (const auto& [id, value] : extended_) fn(id, value);
  }

 private:
  static constexpr std::size_t kPageShift = 6;  // 64 index slots per page
  static constexpr std::size_t kPageSize = std::size_t{1} << kPageShift;
  static constexpr std::size_t kChunkShift = 4;  // 16 elements per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  struct Entry {
    std::uint32_t id = 0;
    T value{};
  };

  /// Position + 1 of a standard id's element; 0 when absent.
  std::size_t position_of(std::uint32_t id) const noexcept {
    const std::uint16_t* page = index_[id >> kPageShift].get();
    return page == nullptr ? 0 : page[id & (kPageSize - 1)];
  }
  std::uint16_t& index_slot(std::uint32_t id) noexcept {
    return index_[id >> kPageShift][id & (kPageSize - 1)];
  }
  Entry& entry(std::size_t position) const noexcept {
    return chunks_[position >> kChunkShift][position & (kChunkSize - 1)];
  }

  /// try_emplace for every case but a standard id already present.
  template <typename... Args>
  std::pair<T*, bool> insert(std::uint32_t id, Args&&... args) {
    if (id > can::kMaxStandardId) {
      const auto [it, inserted] = extended_.try_emplace(id, std::forward<Args>(args)...);
      return {&it->second, inserted};
    }
    std::unique_ptr<std::uint16_t[]>& page = index_[id >> kPageShift];
    if (!page) page = std::make_unique<std::uint16_t[]>(kPageSize);
    if (size_ == chunks_.size() * kChunkSize) {
      chunks_.push_back(std::make_unique<Entry[]>(kChunkSize));
    }
    // Slots past size_ hold value-initialised T (fresh chunk or clear()).
    Entry& slot = entry(size_);
    slot.id = id;
    if constexpr (sizeof...(Args) > 0) slot.value = T(std::forward<Args>(args)...);
    page[id & (kPageSize - 1)] = static_cast<std::uint16_t>(++size_);
    return {&slot.value, true};
  }

  /// Standard id -> position + 1 (0 = absent), in lazily allocated pages.
  std::array<std::unique_ptr<std::uint16_t[]>, (can::kMaxStandardId + 1) / kPageSize> index_;
  std::vector<std::unique_ptr<Entry[]>> chunks_;
  std::size_t size_ = 0;  // standard ids stored
  std::unordered_map<std::uint32_t, T> extended_;
};

}  // namespace acf::ids
