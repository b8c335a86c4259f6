#include "fleet/remote/lease.hpp"

#include <algorithm>

namespace acf::fleet::remote {

LeaseTable::LeaseTable(std::size_t trial_count)
    : states_(trial_count, TrialState::kUnissued), ever_leased_(trial_count, false) {
  for (std::size_t i = 0; i < trial_count; ++i) queue_.push_back(i);
}

void LeaseTable::mark_done(std::size_t index) {
  if (index >= states_.size() || states_[index] == TrialState::kDone) return;
  states_[index] = TrialState::kDone;
  ++done_;
  // Stale queue entries are skipped at grant time; no need to scrub here.
}

std::optional<GrantedLease> LeaseTable::grant(std::uint64_t worker, std::size_t max_trials,
                                              WallClock::time_point now,
                                              std::chrono::milliseconds ttl) {
  GrantedLease granted;
  while (granted.trials.size() < max_trials && !queue_.empty()) {
    const std::size_t index = queue_.front();
    queue_.pop_front();
    if (states_[index] != TrialState::kUnissued) continue;  // stale entry
    states_[index] = TrialState::kLeased;
    if (ever_leased_[index]) ++stats_.trials_stolen;
    ever_leased_[index] = true;
    granted.trials.push_back(index);
  }
  if (granted.trials.empty()) return std::nullopt;
  granted.lease_id = next_lease_id_++;
  Lease lease;
  lease.worker = worker;
  lease.ttl = ttl;
  lease.deadline = now + ttl;
  lease.remaining = granted.trials;
  leases_.emplace(granted.lease_id, std::move(lease));
  ++stats_.leases_issued;
  return granted;
}

CompletionResult LeaseTable::complete(std::uint64_t lease_id, std::size_t index) {
  if (index >= states_.size()) return CompletionResult::kBadIndex;
  // Shed the trial from its lease (when that lease is still alive) whatever
  // the outcome below; an emptied lease is retired.
  const auto it = leases_.find(lease_id);
  if (it != leases_.end()) {
    auto& remaining = it->second.remaining;
    remaining.erase(std::remove(remaining.begin(), remaining.end(), index),
                    remaining.end());
    if (remaining.empty()) leases_.erase(it);
  }
  if (states_[index] == TrialState::kDone) {
    ++stats_.duplicate_completions;
    return CompletionResult::kDuplicate;
  }
  states_[index] = TrialState::kDone;
  ++done_;
  return CompletionResult::kAccepted;
}

void LeaseTable::renew(std::uint64_t lease_id, WallClock::time_point now) {
  const auto it = leases_.find(lease_id);
  if (it != leases_.end()) it->second.deadline = now + it->second.ttl;
}

void LeaseTable::reclaim(Lease& lease, std::uint64_t& counter) {
  ++counter;
  // Reverse order keeps the reclaimed trials ascending at the queue front,
  // so the stealing worker receives them in trial-index order.
  for (auto it = lease.remaining.rbegin(); it != lease.remaining.rend(); ++it) {
    if (states_[*it] != TrialState::kLeased) continue;  // completed meanwhile
    states_[*it] = TrialState::kUnissued;
    queue_.push_front(*it);
  }
}

std::size_t LeaseTable::expire(WallClock::time_point now) {
  std::size_t expired = 0;
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.deadline <= now) {
      reclaim(it->second, stats_.leases_expired);
      it = leases_.erase(it);
      ++expired;
    } else {
      ++it;
    }
  }
  return expired;
}

std::size_t LeaseTable::release_worker(std::uint64_t worker) {
  std::size_t released = 0;
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.worker == worker) {
      reclaim(it->second, stats_.leases_released);
      it = leases_.erase(it);
      ++released;
    } else {
      ++it;
    }
  }
  return released;
}

}  // namespace acf::fleet::remote
