#ifndef FDX_SERVICE_SESSION_REGISTRY_H_
#define FDX_SERVICE_SESSION_REGISTRY_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/incremental.h"
#include "store/chunked_table.h"
#include "util/fingerprint.h"
#include "util/status.h"

namespace fdx {

/// One open dataset: an IncrementalFdx accumulator plus a running
/// content fingerprint over everything appended so far (the dataset
/// half of the result-cache key for session discovers). The embedded
/// mutex serializes appends and discovers on the same session; distinct
/// sessions proceed in parallel.
struct DatasetSession {
  DatasetSession(std::string session_id, Schema schema, FdxOptions options)
      : id(std::move(session_id)), fdx(std::move(schema), std::move(options)) {
    content.UpdateString("session");
  }

  const std::string id;
  std::mutex mu;        ///< serializes fdx + content mutations
  IncrementalFdx fdx;   ///< guarded by mu
  Fingerprint content;  ///< guarded by mu; framed per appended batch
  /// With --state-dir, the session's rows: one spilled chunk per
  /// appended batch (IncrementalFdx keeps only moments). Its manifest
  /// carries `content` as the commit string. Guarded by mu; null
  /// without a state dir.
  std::unique_ptr<ChunkedTable> store;
};

/// Session table with a hard cap and idle-TTL eviction. Ids are
/// deterministic ("s-1", "s-2", ...) so tests and logs are stable.
/// Sessions are handed out as shared_ptr: an in-flight append on a
/// session the TTL sweep just evicted finishes safely against its own
/// reference, it is merely no longer reachable by id.
///
/// Mutex-striped: ids hash onto `shards` independent tables, each with
/// its own lock, so lookups for different sessions never contend. The
/// `max_sessions` cap stays *global and exact* — admission goes through
/// a compare-exchange loop on an atomic live count, so two racing Opens
/// at the cap cannot both succeed. Get() sweeps only the target id's
/// shard for TTL expiry; Open() sweeps every shard when the cap is hit
/// (an expired slot anywhere should free admission). Thread-safe.
class SessionRegistry {
 public:
  /// `ttl_seconds <= 0` disables idle eviction. `shards` is rounded up
  /// to a power of two.
  SessionRegistry(size_t max_sessions, double ttl_seconds, size_t shards = 1);

  /// Creates a session, evicting idle-expired ones first. Returns
  /// kUnavailable once `max_sessions` live sessions exist — the caller
  /// should retry after the TTL frees a slot.
  Result<std::shared_ptr<DatasetSession>> Open(Schema schema,
                                               FdxOptions options);

  /// Re-creates a session under its *original* id (crash recovery from
  /// a snapshot). Bumps the id counter past the restored id so future
  /// Open() calls can never collide with it, enforces the same global
  /// cap as Open(), and rejects duplicate ids. Ids must look like
  /// "s-<n>" (anything a prior run could have handed out).
  Result<std::shared_ptr<DatasetSession>> Restore(const std::string& id,
                                                  Schema schema,
                                                  FdxOptions options);

  /// Looks up a session and marks it used now. kNotFound covers both
  /// never-existed and already-evicted ids.
  Result<std::shared_ptr<DatasetSession>> Get(const std::string& id);

  /// Drops a session by id; returns false if it was not present.
  bool Close(const std::string& id);

  /// Evicts every session idle past the TTL; returns how many.
  size_t EvictExpired();

  /// Called with the ids of TTL-evicted sessions, after the shard locks
  /// are released (the listener may do file I/O). Set once, before the
  /// registry sees traffic; the server uses it to delete snapshot files
  /// of sessions that no longer exist.
  void SetEvictionListener(
      std::function<void(const std::vector<std::string>&)> listener) {
    eviction_listener_ = std::move(listener);
  }

  /// Solver-reuse counters summed over the currently open sessions
  /// (closed and evicted sessions drop out of the totals). Reads only
  /// the sessions' atomic counters under each shard lock — it never
  /// takes a session's mutex, so it cannot stall behind a long solve.
  struct SolverTotals {
    uint64_t solves = 0;        ///< completed structure-learning solves
    uint64_t warm_solves = 0;   ///< subset seeded from the previous solve
    uint64_t memo_hits = 0;     ///< discovers answered without solving
    uint64_t newton_solves = 0; ///< subset that ran the Newton backend
  };
  SolverTotals SolverStats() const;

  /// Live sessions: the admission count the cap is enforced against, so
  /// it never exceeds max_sessions(), even while Opens and Closes race.
  size_t size() const;
  size_t max_sessions() const { return max_sessions_; }
  double ttl_seconds() const { return ttl_seconds_; }
  size_t shards() const { return shards_.size(); }
  uint64_t opened() const { return opened_.load(std::memory_order_relaxed); }
  uint64_t evicted() const { return evicted_.load(std::memory_order_relaxed); }

 private:
  using Clock = std::chrono::steady_clock;

  struct Slot {
    std::shared_ptr<DatasetSession> session;
    Clock::time_point last_used;
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, Slot> slots;  ///< guarded by mu
  };

  Shard& ShardFor(const std::string& id);
  const Shard& ShardFor(const std::string& id) const;

  /// Sweeps one shard; caller holds its lock. Decrements live_. Evicted
  /// ids are appended to `evicted_ids` (when non-null) so the caller
  /// can notify the eviction listener after unlocking.
  size_t EvictExpiredLocked(Shard* shard, Clock::time_point now,
                            std::vector<std::string>* evicted_ids = nullptr);

  /// Fires the eviction listener. Call with no shard lock held.
  void NotifyEvicted(const std::vector<std::string>& ids);

  /// Tries to reserve one slot of the global cap; false when full.
  bool TryReserveSlot();

  const size_t max_sessions_;
  const double ttl_seconds_;
  size_t shard_mask_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<size_t> live_{0};  ///< exact count of open sessions
  std::atomic<uint64_t> opened_{0};
  std::atomic<uint64_t> evicted_{0};
  std::function<void(const std::vector<std::string>&)> eviction_listener_;
};

}  // namespace fdx

#endif  // FDX_SERVICE_SESSION_REGISTRY_H_
