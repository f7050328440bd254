#include "service/session_registry.h"

#include <cstdlib>
#include <functional>
#include <utility>

namespace fdx {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

SessionRegistry::SessionRegistry(size_t max_sessions, double ttl_seconds,
                                 size_t shards)
    : max_sessions_(max_sessions == 0 ? 1 : max_sessions),
      ttl_seconds_(ttl_seconds) {
  const size_t count = RoundUpPow2(shards == 0 ? 1 : shards);
  shard_mask_ = count - 1;
  shards_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SessionRegistry::Shard& SessionRegistry::ShardFor(const std::string& id) {
  return *shards_[std::hash<std::string>{}(id)&shard_mask_];
}

const SessionRegistry::Shard& SessionRegistry::ShardFor(
    const std::string& id) const {
  return *shards_[std::hash<std::string>{}(id)&shard_mask_];
}

bool SessionRegistry::TryReserveSlot() {
  size_t live = live_.load(std::memory_order_relaxed);
  while (live < max_sessions_) {
    if (live_.compare_exchange_weak(live, live + 1,
                                    std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

Result<std::shared_ptr<DatasetSession>> SessionRegistry::Open(
    Schema schema, FdxOptions options) {
  if (options.transform.pooled_covariance) {
    return Status::InvalidArgument(
        "options.pooled_covariance is not supported by sessions (their "
        "batches merge integer moments, not per-pass covariances)");
  }
  if (!TryReserveSlot()) {
    // At capacity: a TTL sweep across every shard may free admission.
    EvictExpired();
    if (!TryReserveSlot()) {
      return Status::Unavailable(
          "session limit reached (" + std::to_string(max_sessions_) +
          " open); close or let one expire, then retry");
    }
  }
  const std::string id =
      "s-" + std::to_string(next_id_.fetch_add(1, std::memory_order_relaxed));
  auto session = std::make_shared<DatasetSession>(id, std::move(schema),
                                                  std::move(options));
  Shard& shard = ShardFor(id);
  std::vector<std::string> evicted_ids;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    EvictExpiredLocked(&shard, Clock::now(), &evicted_ids);
    shard.slots[id] = Slot{session, Clock::now()};
  }
  NotifyEvicted(evicted_ids);
  opened_.fetch_add(1, std::memory_order_relaxed);
  return session;
}

Result<std::shared_ptr<DatasetSession>> SessionRegistry::Restore(
    const std::string& id, Schema schema, FdxOptions options) {
  // Only ids a prior run could have issued are restorable.
  if (id.size() < 3 || id.compare(0, 2, "s-") != 0) {
    return Status::InvalidArgument("cannot restore session id \"" + id +
                                   "\": not of the form s-<n>");
  }
  char* end = nullptr;
  const unsigned long long n = std::strtoull(id.c_str() + 2, &end, 10);
  if (end == nullptr || *end != '\0' || n == 0) {
    return Status::InvalidArgument("cannot restore session id \"" + id +
                                   "\": not of the form s-<n>");
  }
  // Reserve the id range first — even if the restore fails below, a
  // future Open() must never re-issue this id.
  uint64_t next = next_id_.load(std::memory_order_relaxed);
  while (next <= n && !next_id_.compare_exchange_weak(
                          next, n + 1, std::memory_order_relaxed)) {
  }
  if (!TryReserveSlot()) {
    return Status::Unavailable(
        "session limit reached (" + std::to_string(max_sessions_) +
        " open); cannot restore \"" + id + "\"");
  }
  auto session = std::make_shared<DatasetSession>(id, std::move(schema),
                                                  std::move(options));
  Shard& shard = ShardFor(id);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto [it, inserted] = shard.slots.emplace(id, Slot{session, Clock::now()});
    if (!inserted) {
      live_.fetch_sub(1, std::memory_order_relaxed);
      return Status::InvalidArgument("session \"" + id +
                                     "\" already exists; not restored");
    }
  }
  opened_.fetch_add(1, std::memory_order_relaxed);
  return session;
}

Result<std::shared_ptr<DatasetSession>> SessionRegistry::Get(
    const std::string& id) {
  Shard& shard = ShardFor(id);
  std::vector<std::string> evicted_ids;
  Result<std::shared_ptr<DatasetSession>> result = [&] {
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto now = Clock::now();
    EvictExpiredLocked(&shard, now, &evicted_ids);
    auto it = shard.slots.find(id);
    if (it == shard.slots.end()) {
      return Result<std::shared_ptr<DatasetSession>>(
          Status::NotFound("unknown or expired session \"" + id + "\""));
    }
    it->second.last_used = now;
    return Result<std::shared_ptr<DatasetSession>>(it->second.session);
  }();
  NotifyEvicted(evicted_ids);
  return result;
}

bool SessionRegistry::Close(const std::string& id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.slots.erase(id) == 0) return false;
  live_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

size_t SessionRegistry::EvictExpired() {
  size_t evicted = 0;
  const auto now = Clock::now();
  std::vector<std::string> evicted_ids;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    evicted += EvictExpiredLocked(shard.get(), now, &evicted_ids);
  }
  NotifyEvicted(evicted_ids);
  return evicted;
}

size_t SessionRegistry::EvictExpiredLocked(
    Shard* shard, Clock::time_point now,
    std::vector<std::string>* evicted_ids) {
  if (ttl_seconds_ <= 0.0) return 0;
  size_t evicted = 0;
  for (auto it = shard->slots.begin(); it != shard->slots.end();) {
    const std::chrono::duration<double> idle = now - it->second.last_used;
    if (idle.count() > ttl_seconds_) {
      if (evicted_ids != nullptr) evicted_ids->push_back(it->first);
      it = shard->slots.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  if (evicted > 0) {
    live_.fetch_sub(evicted, std::memory_order_relaxed);
    evicted_.fetch_add(evicted, std::memory_order_relaxed);
  }
  return evicted;
}

void SessionRegistry::NotifyEvicted(const std::vector<std::string>& ids) {
  if (ids.empty() || !eviction_listener_) return;
  eviction_listener_(ids);
}

SessionRegistry::SolverTotals SessionRegistry::SolverStats() const {
  SolverTotals totals;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [id, slot] : shard->slots) {
      totals.solves += slot.session->fdx.solves();
      totals.warm_solves += slot.session->fdx.warm_solves();
      totals.memo_hits += slot.session->fdx.memo_hits();
      totals.newton_solves += slot.session->fdx.newton_solves();
    }
  }
  return totals;
}

size_t SessionRegistry::size() const {
  // Summing the shard tables one lock at a time is no snapshot: a Close
  // in a shard already counted plus an Open in one not yet counted would
  // show both sessions. The admission count is exact at every instant.
  return live_.load(std::memory_order_relaxed);
}

}  // namespace fdx
