#ifndef FDX_SERVICE_EVENT_LOOP_H_
#define FDX_SERVICE_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/epoll.h"
#include "util/socket.h"
#include "util/status.h"

namespace fdx {

/// One non-blocking I/O thread of the fdxd daemon: an epoll instance
/// owning some set of client connections (and, on the listener-attached
/// loop, the accept path). The daemon runs one loop per hardware thread
/// by default (ServerOptions::io_threads) and assigns connections
/// round-robin; connection count never implies thread count — one loop
/// comfortably multiplexes thousands of sockets.
///
/// Framing and pipelining. Bytes are read as they arrive into a
/// per-connection buffer and split into line-delimited frames
/// incrementally, so a request spread over many tiny writes (a slow or
/// bulk sender) costs no thread and no busy wait. A client may pipeline
/// many requests back-to-back; parsed frames queue per connection and
/// are *executed strictly in arrival order, one at a time* — request
/// k+1 does not start until request k's response is computed. Responses
/// are therefore written in request order by construction, and
/// per-connection effect ordering (append-then-discover) is the same as
/// for a client that waits for each response before sending the next
/// request. Requests from different connections execute concurrently on
/// the worker pool.
///
/// Execution happens through a dispatch callback provided by the
/// server. The dispatcher either answers synchronously on the loop
/// thread (parse errors, opens, status, cache hits) or hands the work
/// to the JobQueue and invokes the completion from a worker thread;
/// completions are marshalled back to the loop via a mutex-guarded
/// queue plus an eventfd wakeup, so every socket is only ever touched
/// by its owning loop thread.
class EventLoop {
 public:
  /// Completion for one request: the response line (no trailing '\n')
  /// plus whether the connection stays open. Thread-safe: may be
  /// invoked synchronously on the loop thread or later from any other
  /// thread; must be invoked exactly once.
  using DoneFn = std::function<void(std::string response, bool keep_open)>;

  /// Executes one request line. Must eventually call `done`.
  using DispatchFn = std::function<void(std::string line, DoneFn done)>;

  struct Options {
    /// Longest accepted request frame; a connection exceeding it
    /// without a newline cannot be re-synchronized and is closed.
    size_t max_line_bytes = 64 * 1024 * 1024;
    /// Parsed-but-unexecuted frames allowed per connection before the
    /// loop stops reading from that socket (TCP backpressure).
    size_t max_pipeline_depth = 1024;
    /// How long RequestStop() may keep polling to flush pending
    /// response bytes to slow readers before closing them.
    double stop_flush_seconds = 3.0;
    /// Backoff window after a transient accept failure (EMFILE & co) —
    /// prevents a hot accept/fail spin while fds are exhausted.
    double accept_backoff_seconds = 0.01;
  };

  struct Callbacks {
    DispatchFn dispatch;
    /// Invoked on the loop thread for every accepted socket; the
    /// callee decides to adopt it (into any loop) or drop it.
    std::function<void(Socket sock)> on_accept;
  };

  EventLoop(Options options, Callbacks callbacks);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Makes this loop the accepting loop. The listener must already be
  /// non-blocking and outlive the loop; it is polled, not owned.
  void AttachListener(ListenSocket* listener);

  /// Spawns the loop thread.
  Status Start();

  /// Hands a connected socket to this loop (thread-safe; callable from
  /// another loop's accept path or from tests, before or after Start()).
  void AdoptConnection(Socket sock);

  /// Asks the loop to finish: stop accepting and reading, deliver every
  /// already-queued completion, flush write buffers (bounded by
  /// stop_flush_seconds), close everything, and exit. Call only after
  /// in-flight jobs have drained — queued completions are delivered,
  /// but no new dispatches start.
  void RequestStop();

  /// Joins the loop thread (idempotent).
  void Join();

  /// Currently open connections on this loop.
  size_t live_connections() const {
    return live_.load(std::memory_order_relaxed);
  }
  /// Transient accept failures survived (EMFILE, ECONNABORTED, ...).
  uint64_t accept_transient_errors() const {
    return accept_transient_errors_.load(std::memory_order_relaxed);
  }
  /// Connections closed abruptly: an I/O error, a peer that vanished
  /// with a response undelivered, or unexecuted pipelined frames.
  uint64_t aborted_connections() const {
    return aborted_.load(std::memory_order_relaxed);
  }

 private:
  struct Conn {
    uint64_t id = 0;
    Socket sock;
    std::string read_buf;             ///< bytes not yet framed
    std::deque<std::string> pending;  ///< parsed, unexecuted frames
    bool executing = false;           ///< a dispatch is in flight
    std::string write_buf;            ///< response bytes not yet sent
    size_t write_off = 0;
    bool read_open = true;       ///< false after EOF / RDHUP
    bool read_paused = false;    ///< pipeline queue full (backpressure)
    bool read_armed = true;      ///< EPOLLIN armed
    bool write_armed = false;    ///< EPOLLOUT armed
    bool close_after_flush = false;
    bool dead = false;           ///< unrecoverable; close asap
  };

  struct Completion {
    uint64_t conn_id = 0;
    std::string response;
    bool keep_open = true;
  };

  void Run();
  void HandleAccepts();
  void HandleReadable(Conn* conn);
  void ExtractFrames(Conn* conn);
  void Pump(Conn* conn);   ///< start next frames while idle
  void Flush(Conn* conn);  ///< push write_buf to the socket
  void UpdateInterest(Conn* conn);
  void MaybeClose(Conn* conn);
  void CloseConn(uint64_t id);
  void ApplyCompletion(const Completion& completion);
  void DrainMailbox();  ///< adopt queued sockets + apply completions
  void FinishAndStop();
  DoneFn MakeDone(uint64_t conn_id);

  const Options options_;
  const Callbacks callbacks_;

  Epoll epoll_;
  ListenSocket* listener_ = nullptr;  ///< not owned; one loop only
  bool accepting_ = false;
  std::chrono::steady_clock::time_point accept_backoff_until_{};

  std::thread thread_;
  std::thread::id loop_thread_id_;  ///< set at the top of Run()
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};

  uint64_t next_conn_id_ = 1;  ///< loop-thread only
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;

  std::mutex mailbox_mu_;
  std::vector<Socket> adopted_;          ///< guarded by mailbox_mu_
  std::vector<Completion> completions_;  ///< guarded by mailbox_mu_

  std::atomic<size_t> live_{0};
  std::atomic<uint64_t> accept_transient_errors_{0};
  std::atomic<uint64_t> aborted_{0};

  static constexpr uint64_t kListenerTag = ~uint64_t{0} - 1;
};

}  // namespace fdx

#endif  // FDX_SERVICE_EVENT_LOOP_H_
