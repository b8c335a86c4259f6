// A signal database: the set of message definitions for one vehicle network.
// This is the "design knowledge" input the paper contrasts with protocol-
// only fuzzing (Table I): the targeted generator and the plausibility oracle
// both consume it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dbc/message_def.hpp"

namespace acf::dbc {

class Database {
 public:
  Database() = default;

  /// Adds a message definition; replaces any existing one with the same id.
  void add(MessageDef message);

  const MessageDef* by_id(std::uint32_t id) const noexcept;

  const std::vector<MessageDef>& messages() const noexcept { return messages_; }
  std::size_t size() const noexcept { return messages_.size(); }

  /// All defined ids, ascending (used to derive targeted fuzz id sets).
  std::vector<std::uint32_t> ids() const;

 private:
  std::vector<MessageDef> messages_;
  std::unordered_map<std::uint32_t, std::size_t> by_id_;
};

}  // namespace acf::dbc
