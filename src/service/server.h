#ifndef FDX_SERVICE_SERVER_H_
#define FDX_SERVICE_SERVER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/fdx.h"
#include "service/event_loop.h"
#include "service/job_queue.h"
#include "service/result_cache.h"
#include "service/session_registry.h"
#include "util/socket.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace fdx {

class JsonValue;
class Table;

/// Configuration of an fdxd daemon instance.
struct ServerOptions {
  /// Loopback TCP port; 0 binds an ephemeral port (read back via port()).
  uint16_t port = 0;
  /// Event-loop I/O threads; 0 runs one per hardware thread
  /// (std::thread::hardware_concurrency(), at least 1). Unlike
  /// FdxOptions::threads this ignores FDX_THREADS, which sizes the
  /// compute pools. Connections are assigned round-robin; each socket
  /// is owned by exactly one loop thread.
  size_t io_threads = 0;
  /// Worker threads executing discovery jobs.
  size_t workers = 2;
  /// Maximum admitted-but-unfinished discovery jobs; submissions beyond
  /// this are answered with a structured kUnavailable error.
  size_t queue_capacity = 8;
  /// Open dataset sessions allowed at once.
  size_t max_sessions = 32;
  /// Mutex stripes of the session registry.
  size_t session_shards = 8;
  /// Idle seconds after which a session is evicted (<= 0: never).
  double session_ttl_seconds = 600.0;
  /// Graceful-shutdown drain budget for in-flight jobs.
  double drain_seconds = 10.0;
  /// Result-cache entries kept (LRU beyond this).
  size_t cache_capacity = 64;
  /// Mutex stripes of the result cache (recency is per-stripe).
  size_t cache_shards = 8;
  /// Parsed-but-unexecuted pipelined requests allowed per connection
  /// before the event loop stops reading from that socket.
  size_t max_pipeline_depth = 1024;
  /// Baseline FdxOptions; per-request "options" objects layer on top.
  FdxOptions fdx;
  /// Enables test-only ops (currently `sleep`, which parks a worker for
  /// a requested duration so integration tests can fill the queue
  /// deterministically). Never enable in production.
  bool enable_debug_ops = false;

  // --- Durability (DESIGN.md §13) ---
  /// When non-empty, every session is durable here: a session file
  /// written once at open plus a chunk store that takes one chunk per
  /// append (both deleted on eviction), and the result cache is spilled
  /// periodically; Start() replays the directory, restoring sessions
  /// that serve bit-identical results.
  std::string state_dir;
  /// Seconds between result-cache spills in state-dir mode.
  double snapshot_interval_seconds = 5.0;

  // --- Overload robustness ---
  /// Server-side deadline applied to queued ops when the request does
  /// not carry its own "deadline_seconds" (<= 0: unlimited). Measured
  /// from admission; a job whose deadline expired while it waited in
  /// the queue answers Timeout + retry_after instead of running.
  double default_deadline_seconds = 0.0;
  /// Shed new discover jobs once queue occupancy reaches this fraction
  /// of `queue_capacity` (0 disables). Shedding answers a structured
  /// kUnavailable with `retry_after` *before* the job ties up a queue
  /// slot; cache hits are never shed.
  double shed_queue_watermark = 0.0;
  /// Shed new discover jobs while resident memory exceeds this many
  /// MiB (0 disables).
  size_t shed_max_rss_mb = 0;
  /// Backoff hint (seconds) carried in shed / expired-deadline
  /// responses as `retry_after`.
  double shed_retry_after_seconds = 0.2;

  /// Chunk payload codec of the durable sessions' stores ("" or "none"
  /// stores raw, "varint" delta-compresses dictionary codes). A server-side
  /// knob rather than a protocol field: fingerprints cover the
  /// uncompressed bytes, so the codec never affects cache keys or
  /// results, only the bytes on disk.
  std::string store_compression;
};

/// fdxd: the FD-discovery daemon. Epoll event loops doing pipelined
/// line-delimited JSON framing, a bounded JobQueue running discovery,
/// a sharded SessionRegistry for incremental datasets, and a sharded
/// ResultCache replaying byte-identical responses for repeated (dataset
/// fingerprint, canonical options) pairs.
///
/// Lifecycle: Start() binds and spawns the I/O layer; Wait() blocks
/// until a `shutdown` request (or Shutdown() call) and then performs
/// the graceful teardown: stop admitting connections and jobs, drain
/// in-flight jobs under `drain_seconds` (their responses still reach
/// clients), flush and close connections, join everything. Shutdown()
/// is idempotent and safe to race with Wait().
class FdxServer {
 public:
  explicit FdxServer(ServerOptions options);
  ~FdxServer();

  FdxServer(const FdxServer&) = delete;
  FdxServer& operator=(const FdxServer&) = delete;

  /// Binds the listener and starts serving. Fails on an occupied port.
  Status Start();

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }

  /// Blocks until shutdown is requested, then tears down.
  void Wait();

  /// Requests shutdown and performs (or waits for) the teardown.
  void Shutdown();

  /// True once every in-flight job at teardown finished inside the
  /// drain budget (meaningful after Wait()/Shutdown() returned).
  bool drained_cleanly() const { return drained_cleanly_.load(); }

  /// Request kinds tracked by the per-op counters (status output).
  enum class RequestKind : size_t {
    kOpen = 0,
    kAppend,
    kDiscover,
    kStatus,
    kSleep,
    kShutdown,
    kInvalid,  ///< unparseable / unknown-op requests
    kCount,
  };

  // Introspection for tests and the `status` op.
  size_t io_threads() const { return event_loops_.size(); }
  uint64_t connections() const { return connections_.load(); }
  size_t live_connections() const;
  uint64_t requests() const { return requests_.load(); }
  uint64_t requests_by_kind(RequestKind kind) const {
    return requests_by_kind_[static_cast<size_t>(kind)].load(
        std::memory_order_relaxed);
  }
  uint64_t accept_faults() const { return accept_faults_.load(); }
  uint64_t accept_transient_errors() const;
  uint64_t aborted_connections() const;
  const JobQueue& queue() const { return *queue_; }
  const ResultCache& cache() const { return *cache_; }
  const SessionRegistry& sessions() const { return *sessions_; }

  // Overload + durability counters (status output and tests).
  uint64_t shed_queue() const { return shed_queue_.load(); }
  uint64_t shed_memory() const { return shed_memory_.load(); }
  uint64_t shed_deadline() const { return shed_deadline_.load(); }
  bool durable() const { return !options_.state_dir.empty(); }
  uint64_t sessions_recovered() const { return sessions_recovered_.load(); }
  uint64_t sessions_recovery_failed() const {
    return sessions_recovery_failed_.load();
  }
  uint64_t cache_entries_restored() const {
    return cache_entries_restored_.load();
  }
  /// Durable writes: session-file writes at open plus append commits
  /// (and cache spills); failures of the same.
  uint64_t snapshot_writes() const { return snapshot_writes_.load(); }
  uint64_t snapshot_failures() const { return snapshot_failures_.load(); }
  /// Store directories that no session file named at startup, deleted.
  uint64_t orphan_stores_removed() const {
    return orphan_stores_removed_.load();
  }

 private:
  /// Event-loop accept callback: fault injection, admission, and
  /// round-robin assignment to an I/O loop.
  void OnAccept(Socket sock);

  /// Request dispatch: answers fast ops synchronously on the I/O thread
  /// and hands solver-bound ops to the JobQueue. `done` is invoked
  /// exactly once (possibly from a worker thread).
  void Dispatch(std::string line, EventLoop::DoneFn done);

  /// Bumps the total and per-op request counters; returns the kind.
  RequestKind RecordRequest(const std::string& op);

  std::string HandleOpen(const JsonValue& request);
  std::string HandleStatus();

  /// Transforms `batch`, commits it to the session's store when durable
  /// (the manifest rename is the commit point), then merges its moments
  /// and content fingerprint. Any error leaves the session unchanged.
  /// Requires the session mutex held.
  Status CommitBatchLocked(DatasetSession* session, const Table& batch);
  /// CommitBatchLocked rendered as the append response.
  std::string ApplyAppendLocked(DatasetSession* session, const Table& batch);
  void HandleAppend(const JsonValue& request, EventLoop::DoneFn done);

  // Discover: shared job bodies. RunSessionDiscover computes (or
  // replays) the session's current result under its mutex;
  // RunTableDiscover solves a one-shot table.
  std::string SessionDiscoverKeyLocked(const DatasetSession& session);
  std::string RunSessionDiscover(const std::shared_ptr<DatasetSession>& s);
  std::string RunTableDiscover(const std::shared_ptr<const Table>& table,
                               const FdxOptions& options,
                               const std::string& key);
  void HandleDiscover(const JsonValue& request, EventLoop::DoneFn done);
  void HandleSleep(const JsonValue& request, EventLoop::DoneFn done);

  // --- Durability (state-dir mode) ---
  std::string SessionsDir() const;
  std::string SessionSnapshotPath(const std::string& id) const;
  std::string CacheSnapshotPath() const;
  /// Chunk stores of the durable sessions, one directory per session id
  /// under <state_dir>/stores/.
  std::string StoresDir() const;
  std::string SessionStoreDir(const std::string& id) const;
  /// Durable open: creates the session's store, then writes its session
  /// file. Requires the session mutex held.
  Status CreateSessionStoreLocked(DatasetSession* session);
  /// Replays the state directory on startup: restores sessions (or
  /// deletes + counts unrecoverable ones), deletes + counts stores no
  /// session file names, and re-inserts spilled cache entries.
  Status RestoreState();
  /// Restores the session whose file is sessions/<id>.json: replays its
  /// store, verifying the committed content fingerprint, or migrates an
  /// older fdxd's session-file rows into a new store through the append
  /// path. An error leaves the session out of the registry.
  Status RestoreSession(const std::string& id);
  /// Spills the result cache to its snapshot file.
  void PersistCache();
  /// Periodic cache-spill thread body.
  void SnapshotSpillLoop();

  // --- Overload robustness ---
  /// Effective server-side deadline for a request, seconds (<= 0:
  /// unlimited): the request's "deadline_seconds" or the configured
  /// default.
  double RequestDeadlineSeconds(const JsonValue& request) const;
  /// Wraps a job body so that a deadline which expired while the job
  /// waited in the queue renders Timeout + retry_after instead of
  /// running the work. The body receives the seconds left on the
  /// deadline when it starts (0 = unlimited) so it can bound its own
  /// wall-clock, e.g. via FdxOptions::time_budget_seconds.
  std::function<std::string()> WithDeadline(
      std::string op, double deadline_seconds,
      std::function<std::string(double)> body);
  /// Admission-time load shedding for discover jobs: OK, or a
  /// kUnavailable explaining which watermark (queue depth, RSS) was
  /// crossed. Bumps the corresponding shed counter.
  Status CheckShed();

  /// Submits `body` to the queue and routes its response through
  /// `done`; rejections and the service.enqueue fault point are
  /// rendered as structured errors for `op`.
  void SubmitJob(const std::string& op, std::function<std::string()> body,
                 EventLoop::DoneFn done);

  void RequestShutdown();
  void TeardownLocked();  ///< runs once; callers serialize via teardown_mu_

  ServerOptions options_;
  ListenSocket listener_;
  uint16_t port_ = 0;
  Stopwatch uptime_;

  // Declaration order is load-bearing for destruction: ~JobQueue waits
  // for in-flight jobs (a drain-budget overrun leaves some running into
  // ~FdxServer), and those jobs touch the cache, the sessions, and the
  // event loops' completion mailboxes — so queue_ is declared last and
  // destroyed first.
  std::vector<std::unique_ptr<EventLoop>> event_loops_;
  std::atomic<size_t> next_loop_{0};

  std::unique_ptr<ResultCache> cache_;
  std::unique_ptr<SessionRegistry> sessions_;
  std::unique_ptr<JobQueue> queue_;

  std::atomic<bool> accepting_{false};

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;               ///< guarded by shutdown_mu_

  std::mutex teardown_mu_;
  bool teardown_done_ = false;                    ///< guarded by teardown_mu_

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> requests_{0};
  std::array<std::atomic<uint64_t>, static_cast<size_t>(RequestKind::kCount)>
      requests_by_kind_{};
  std::atomic<uint64_t> accept_faults_{0};
  std::atomic<bool> drained_cleanly_{true};

  // Overload counters.
  std::atomic<uint64_t> shed_queue_{0};
  std::atomic<uint64_t> shed_memory_{0};
  std::atomic<uint64_t> shed_deadline_{0};

  // Durability counters + the periodic cache-spill thread.
  std::atomic<uint64_t> sessions_recovered_{0};
  std::atomic<uint64_t> sessions_recovery_failed_{0};
  std::atomic<uint64_t> cache_entries_restored_{0};
  std::atomic<uint64_t> snapshot_writes_{0};
  std::atomic<uint64_t> snapshot_failures_{0};
  std::atomic<uint64_t> orphan_stores_removed_{0};
  std::thread snapshot_thread_;
  std::mutex snapshot_mu_;
  std::condition_variable snapshot_cv_;
  bool snapshot_stop_ = false;  ///< guarded by snapshot_mu_
};

/// Wire name of a request kind ("open", "append", ..., "invalid").
const char* RequestKindName(FdxServer::RequestKind kind);

}  // namespace fdx

#endif  // FDX_SERVICE_SERVER_H_
