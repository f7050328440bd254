#include "util/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <utility>

#include "util/fault_injection.h"

namespace fdx {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

sockaddr_in LoopbackAddress(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

Status SetFdNonBlocking(int fd, bool nonblocking) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  const int updated =
      nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, updated) < 0) return Errno("fcntl(F_SETFL)");
  return Status::OK();
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

bool IsTransientAcceptErrno(int error) {
  switch (error) {
    case ECONNABORTED:  // peer gave up during the handshake
    case EMFILE:        // process fd limit — frees up as conns close
    case ENFILE:        // system fd limit
    case ENOBUFS:
    case ENOMEM:
    case EPERM:         // firewall said no to this one peer
    case EPROTO:
    case EINTR:
      return true;
    default:
      return false;
  }
}

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

Result<Socket> Socket::ConnectLoopback(uint16_t port, double timeout_seconds) {
  if (timeout_seconds <= 0.0) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Errno("socket");
    sockaddr_in addr = LoopbackAddress(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      const Status status =
          Errno("connect to 127.0.0.1:" + std::to_string(port));
      ::close(fd);
      return status;
    }
    SetNoDelay(fd);
    return Socket(fd);
  }

  // Deadline-bounded connect: non-blocking connect + poll for
  // writability, then restore blocking mode for the caller.
  FDX_ASSIGN_OR_RETURN(Socket sock, ConnectLoopbackAsync(port));
  pollfd pfd{};
  pfd.fd = sock.fd();
  pfd.events = POLLOUT;
  const int timeout_ms = static_cast<int>(timeout_seconds * 1000.0);
  int polled;
  do {
    polled = ::poll(&pfd, 1, timeout_ms < 1 ? 1 : timeout_ms);
  } while (polled < 0 && errno == EINTR);
  if (polled < 0) return Errno("poll(connect)");
  if (polled == 0) {
    return Status::Timeout("connect to 127.0.0.1:" + std::to_string(port) +
                           " timed out after " +
                           std::to_string(timeout_seconds) + "s");
  }
  FDX_RETURN_IF_ERROR(sock.FinishConnect());
  FDX_RETURN_IF_ERROR(sock.SetNonBlocking(false));
  return sock;
}

Result<Socket> Socket::ConnectLoopbackAsync(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket sock(fd);
  FDX_RETURN_IF_ERROR(sock.SetNonBlocking(true));
  sockaddr_in addr = LoopbackAddress(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    return Errno("connect to 127.0.0.1:" + std::to_string(port));
  }
  SetNoDelay(fd);
  return sock;
}

Status Socket::FinishConnect() {
  int error = 0;
  socklen_t len = sizeof(error);
  if (::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &error, &len) != 0) {
    return Errno("getsockopt(SO_ERROR)");
  }
  if (error != 0) {
    return Status::IOError(std::string("connect: ") + std::strerror(error));
  }
  return Status::OK();
}

Status Socket::SetNonBlocking(bool nonblocking) {
  if (fd_ < 0) return Status::IOError("socket closed");
  return SetFdNonBlocking(fd_, nonblocking);
}

Status Socket::SetReadTimeout(double seconds) {
  if (fd_ < 0) return Status::IOError("socket closed");
  timeval tv{};
  if (seconds > 0.0) {
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>((seconds - tv.tv_sec) * 1e6);
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
  }
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt(SO_RCVTIMEO)");
  }
  return Status::OK();
}

Status Socket::SendAll(const std::string& data) {
  if (fd_ < 0) return Status::IOError("send on closed socket");
  size_t sent = 0;
  while (sent < data.size()) {
    if (FaultsArmed() && FaultTriggered(kFaultConnDrop)) {
      return Status::IOError("send: injected connection drop");
    }
    size_t chunk = data.size() - sent;
    if (FaultsArmed() && FaultTriggered(kFaultSocketWriteShort)) chunk = 1;
    const ssize_t n = ::send(fd_, data.data() + sent, chunk, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Result<IoOutcome> Socket::SendRaw(const char* data, size_t size) {
  if (fd_ < 0) return Status::IOError("send on closed socket");
  IoOutcome outcome;
  if (FaultsArmed()) {
    if (FaultTriggered(kFaultConnDrop)) {
      outcome.closed = true;
      return outcome;
    }
    if (FaultTriggered(kFaultSocketWriteEagain)) {
      outcome.would_block = true;
      return outcome;
    }
    if (size > 1 && FaultTriggered(kFaultSocketWriteShort)) size = 1;
  }
  for (;;) {
    const ssize_t n = ::send(fd_, data, size, MSG_NOSIGNAL);
    if (n >= 0) {
      outcome.bytes = static_cast<size_t>(n);
      return outcome;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      outcome.would_block = true;
      return outcome;
    }
    if (errno == EPIPE || errno == ECONNRESET) {
      outcome.closed = true;
      return outcome;
    }
    return Errno("send");
  }
}

Result<IoOutcome> Socket::RecvRaw(char* buf, size_t size) {
  if (fd_ < 0) return Status::IOError("recv on closed socket");
  IoOutcome outcome;
  if (FaultsArmed()) {
    if (FaultTriggered(kFaultConnDrop)) {
      outcome.closed = true;
      return outcome;
    }
    if (size > 1 && FaultTriggered(kFaultSocketReadShort)) size = 1;
  }
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, size, 0);
    if (n > 0) {
      outcome.bytes = static_cast<size_t>(n);
      return outcome;
    }
    if (n == 0) {
      outcome.closed = true;
      return outcome;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      outcome.would_block = true;
      return outcome;
    }
    if (errno == ECONNRESET) {
      outcome.closed = true;
      return outcome;
    }
    return Errno("recv");
  }
}

Status Socket::ReadLine(std::string* line, size_t max_bytes) {
  line->clear();
  for (;;) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      *line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!line->empty() && line->back() == '\r') line->pop_back();
      return Status::OK();
    }
    if (buffer_.size() > max_bytes) {
      return Status::InvalidArgument("line exceeds " +
                                     std::to_string(max_bytes) + " bytes");
    }
    if (fd_ < 0) return Status::NotFound("end of stream");
    if (FaultsArmed() && FaultTriggered(kFaultConnDrop)) {
      buffer_.clear();
      return Status::NotFound("end of stream (injected connection drop)");
    }
    char chunk[4096];
    size_t want = sizeof(chunk);
    if (FaultsArmed() && FaultTriggered(kFaultSocketReadShort)) want = 1;
    const ssize_t n = ::recv(fd_, chunk, want, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Only reachable with SO_RCVTIMEO armed (blocking reads without
        // a timeout never see EAGAIN): the deadline expired.
        return Status::Timeout("read timed out");
      }
      return Errno("recv");
    }
    if (n == 0) {
      if (!buffer_.empty()) {  // final unterminated line
        *line = std::move(buffer_);
        buffer_.clear();
        if (!line->empty() && line->back() == '\r') line->pop_back();
        return Status::OK();
      }
      return Status::NotFound("end of stream");
    }
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

void Socket::ShutdownBoth() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ListenSocket::~ListenSocket() { Close(); }

ListenSocket::ListenSocket(ListenSocket&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

ListenSocket& ListenSocket::operator=(ListenSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

Result<ListenSocket> ListenSocket::BindLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = LoopbackAddress(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Errno("bind 127.0.0.1:" + std::to_string(port));
    ::close(fd);
    return status;
  }
  // The event loop serves thousands of concurrent connects; ask for a
  // deep backlog (the kernel clamps to somaxconn).
  if (::listen(fd, 4096) != 0) {
    const Status status = Errno("listen");
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const Status status = Errno("getsockname");
    ::close(fd);
    return status;
  }
  return ListenSocket(fd, ntohs(addr.sin_port));
}

Status ListenSocket::SetNonBlocking(bool nonblocking) {
  if (fd_ < 0) return Status::IOError("listener closed");
  return SetFdNonBlocking(fd_, nonblocking);
}

ListenSocket::AcceptOutcome ListenSocket::AcceptNonBlocking(
    Socket* out, std::string* error) {
  if (fd_ < 0) {
    *error = "listener closed";
    return AcceptOutcome::kShutdown;
  }
  for (;;) {
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn >= 0) {
      SetNoDelay(conn);
      *out = Socket(conn);
      return AcceptOutcome::kAccepted;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return AcceptOutcome::kWouldBlock;
    }
    *error = std::strerror(errno);
    return IsTransientAcceptErrno(errno) ? AcceptOutcome::kRetryable
                                         : AcceptOutcome::kShutdown;
  }
}

void ListenSocket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void ListenSocket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace fdx
