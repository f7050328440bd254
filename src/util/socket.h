#ifndef FDX_UTIL_SOCKET_H_
#define FDX_UTIL_SOCKET_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace fdx {

/// Thin RAII wrappers over loopback TCP sockets — everything the fdxd
/// daemon and its clients need and nothing more. Connections are bound
/// to 127.0.0.1 only (the service is a local sidecar, not a network
/// server), writes suppress SIGPIPE so a vanished peer surfaces as a
/// Status instead of killing the process, and reads are buffered for
/// the daemon's line-delimited framing. The blocking calls
/// (ConnectLoopback, SendAll, ReadLine) serve the CLI clients and tests;
/// the non-blocking surface (SetNonBlocking + RecvRaw/SendRaw/
/// AcceptNonBlocking) is what the daemon's epoll event loops and the
/// fdxload engine are built on.

/// Outcome of one non-blocking read or write attempt.
struct IoOutcome {
  size_t bytes = 0;         ///< bytes actually transferred
  bool would_block = false; ///< EAGAIN/EWOULDBLOCK: retry on readiness
  bool closed = false;      ///< EOF (reads) or peer reset (both)
};

/// A connected stream socket. Movable, closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket();

  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  /// Connects to 127.0.0.1:`port`. A positive `timeout_seconds` bounds
  /// the connect itself (kTimeout on expiry); 0 blocks indefinitely.
  static Result<Socket> ConnectLoopback(uint16_t port,
                                        double timeout_seconds = 0.0);

  /// Starts a non-blocking connect to 127.0.0.1:`port`. The socket is
  /// left non-blocking; once it polls writable, call FinishConnect() to
  /// learn whether the handshake succeeded. (`fdxload` opens thousands
  /// of connections this way without a thread per socket.)
  static Result<Socket> ConnectLoopbackAsync(uint16_t port);

  /// Resolves a ConnectLoopbackAsync handshake after writability:
  /// OK, or the connect error (SO_ERROR) as a Status.
  Status FinishConnect();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Switches O_NONBLOCK on or off.
  Status SetNonBlocking(bool nonblocking);

  /// Arms SO_RCVTIMEO: a blocked ReadLine past the deadline returns
  /// kTimeout instead of hanging forever. <= 0 clears the timeout.
  Status SetReadTimeout(double seconds);

  /// Writes all of `data` (retrying short writes; EPIPE-safe). Blocking
  /// sockets only — on a non-blocking socket use SendRaw.
  Status SendAll(const std::string& data);

  /// One non-blocking send attempt. Peer-gone errors (EPIPE/ECONNRESET)
  /// report `closed`, not an error Status.
  Result<IoOutcome> SendRaw(const char* data, size_t size);

  /// One non-blocking recv attempt into `buf`.
  Result<IoOutcome> RecvRaw(char* buf, size_t size);

  /// Reads up to and including the next '\n'; returns the line without
  /// the terminator (a trailing '\r' is also stripped). A clean EOF with
  /// no pending bytes yields kNotFound ("end of stream"); `max_bytes`
  /// bounds a single line to keep a hostile peer from ballooning memory.
  /// With SetReadTimeout armed, an idle wait surfaces as kTimeout.
  Status ReadLine(std::string* line, size_t max_bytes = 64 * 1024 * 1024);

  /// Shuts down both directions: the peer sees EOF, and a blocked
  /// reader on this side wakes.
  void ShutdownBoth();

  void Close();

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes received but not yet returned
};

/// True for accept(2) errno values that indicate a transient condition
/// (aborted handshake, fd or buffer exhaustion) rather than a dead
/// listener — the accept loop must retry these, not exit. Exposed so
/// the event loop and the tests agree on the classification.
bool IsTransientAcceptErrno(int error);

/// A listening loopback socket.
class ListenSocket {
 public:
  /// Outcome of one non-blocking accept attempt.
  enum class AcceptOutcome {
    kAccepted,    ///< *out holds the new connection
    kWouldBlock,  ///< nothing pending; wait for readiness
    kRetryable,   ///< transient error (EMFILE/ECONNABORTED/...): carry on
    kShutdown,    ///< listener shut down or unusable: stop accepting
  };

  ListenSocket() = default;
  ~ListenSocket();

  ListenSocket(ListenSocket&& other) noexcept;
  ListenSocket& operator=(ListenSocket&& other) noexcept;
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// Binds and listens on 127.0.0.1:`port`; port 0 picks an ephemeral
  /// port (read it back with port()).
  static Result<ListenSocket> BindLoopback(uint16_t port);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  uint16_t port() const { return port_; }

  /// Switches O_NONBLOCK on the listener (for the event loop).
  Status SetNonBlocking(bool nonblocking);

  /// One non-blocking accept attempt; `*error` carries detail for the
  /// kRetryable / kShutdown outcomes.
  AcceptOutcome AcceptNonBlocking(Socket* out, std::string* error);

  /// Refuses new connections; the event loop polling the listener sees
  /// it as shut down. The fd stays open (and is only released by the
  /// destructor / Close), so there is no close/accept race on fd reuse.
  void Shutdown();

  void Close();

 private:
  explicit ListenSocket(int fd, uint16_t port) : fd_(fd), port_(port) {}

  int fd_ = -1;
  uint16_t port_ = 0;
};

}  // namespace fdx

#endif  // FDX_UTIL_SOCKET_H_
