#include "dbc/database.hpp"

#include <algorithm>

namespace acf::dbc {

void Database::add(MessageDef message) {
  if (auto it = by_id_.find(message.id); it != by_id_.end()) {
    messages_[it->second] = std::move(message);
    return;
  }
  by_id_.emplace(message.id, messages_.size());
  messages_.push_back(std::move(message));
}

const MessageDef* Database::by_id(std::uint32_t id) const noexcept {
  const auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : &messages_[it->second];
}

std::vector<std::uint32_t> Database::ids() const {
  std::vector<std::uint32_t> out;
  out.reserve(messages_.size());
  for (const auto& message : messages_) out.push_back(message.id);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace acf::dbc
