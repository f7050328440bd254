#include "service/event_loop.h"

#include <algorithm>
#include <utility>

namespace fdx {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

EventLoop::EventLoop(Options options, Callbacks callbacks)
    : options_(std::move(options)), callbacks_(std::move(callbacks)) {}

EventLoop::~EventLoop() {
  RequestStop();
  Join();
}

void EventLoop::AttachListener(ListenSocket* listener) {
  listener_ = listener;
  accepting_ = true;
}

Status EventLoop::Start() {
  FDX_ASSIGN_OR_RETURN(epoll_, Epoll::Create());
  if (listener_ != nullptr) {
    FDX_RETURN_IF_ERROR(listener_->SetNonBlocking(true));
    FDX_RETURN_IF_ERROR(epoll_.Add(listener_->fd(), kListenerTag));
  }
  started_.store(true);
  thread_ = std::thread(&EventLoop::Run, this);
  return Status::OK();
}

void EventLoop::AdoptConnection(Socket sock) {
  {
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    adopted_.push_back(std::move(sock));
  }
  // Before Start() there is no eventfd to wake; Run() drains the
  // mailbox before its first wait instead.
  if (started_.load()) epoll_.Notify();
}

void EventLoop::RequestStop() {
  stop_.store(true);
  if (started_.load()) epoll_.Notify();
}

void EventLoop::Join() {
  if (thread_.joinable()) thread_.join();
}

EventLoop::DoneFn EventLoop::MakeDone(uint64_t conn_id) {
  return [this, conn_id](std::string response, bool keep_open) {
    Completion completion{conn_id, std::move(response), keep_open};
    if (std::this_thread::get_id() == loop_thread_id_) {
      // Synchronous fast path: the dispatcher answered on the loop
      // thread inside Pump(); apply directly (Pump's loop continues
      // with the next pending frame when it sees executing == false).
      ApplyCompletion(completion);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mailbox_mu_);
      completions_.push_back(std::move(completion));
    }
    epoll_.Notify();
  };
}

void EventLoop::Run() {
  // Completions compare against this id, possibly while TeardownLocked
  // concurrently joins thread_ — so cache it rather than calling
  // thread_.get_id() from two threads at once.
  loop_thread_id_ = std::this_thread::get_id();
  DrainMailbox();  // sockets adopted before Start()
  std::vector<Epoll::Event> events;
  while (true) {
    // A pending accept backoff bounds the poll so accepting resumes on
    // schedule even on an otherwise idle daemon.
    int timeout_ms = -1;
    if (accepting_ && Clock::now() < accept_backoff_until_) {
      const auto remaining = accept_backoff_until_ - Clock::now();
      timeout_ms = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
              .count()) +
          1;
    }
    auto waited = epoll_.Wait(timeout_ms, &events);
    if (!waited.ok()) break;  // epoll itself failed; nothing to salvage

    DrainMailbox();
    if (stop_.load()) {
      FinishAndStop();
      return;
    }

    for (const Epoll::Event& event : events) {
      if (event.tag == kListenerTag) {
        if (event.readable || event.hangup) HandleAccepts();
        continue;
      }
      auto it = conns_.find(event.tag);
      if (it == conns_.end()) continue;  // closed earlier this batch
      Conn* conn = it->second.get();
      if (event.readable || event.hangup) HandleReadable(conn);
      if (event.writable && !conn->dead) Flush(conn);
      Pump(conn);
      Flush(conn);
      UpdateInterest(conn);
      MaybeClose(conn);
    }
    // Accept after connection work so a full ready batch is served
    // before taking on more sockets; with a backoff pending this is
    // reached via the bounded poll timeout.
    if (accepting_ && Clock::now() >= accept_backoff_until_ &&
        listener_ != nullptr) {
      HandleAccepts();
    }
  }
}

void EventLoop::HandleAccepts() {
  if (!accepting_ || listener_ == nullptr) return;
  if (Clock::now() < accept_backoff_until_) return;
  for (;;) {
    Socket sock;
    std::string error;
    const ListenSocket::AcceptOutcome outcome =
        listener_->AcceptNonBlocking(&sock, &error);
    switch (outcome) {
      case ListenSocket::AcceptOutcome::kAccepted:
        callbacks_.on_accept(std::move(sock));
        continue;
      case ListenSocket::AcceptOutcome::kWouldBlock:
        return;
      case ListenSocket::AcceptOutcome::kRetryable:
        // EMFILE/ECONNABORTED & co: survive it, but back off so an fd
        // drought does not turn into a hot accept/fail spin.
        accept_transient_errors_.fetch_add(1, std::memory_order_relaxed);
        accept_backoff_until_ =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   options_.accept_backoff_seconds));
        return;
      case ListenSocket::AcceptOutcome::kShutdown:
        // Real teardown (or an unusable listener): stop accepting for
        // good. Existing connections keep being served.
        accepting_ = false;
        epoll_.Remove(listener_->fd());
        return;
    }
  }
}

void EventLoop::HandleReadable(Conn* conn) {
  if (!conn->read_open || conn->dead) return;
  char chunk[16 * 1024];
  for (;;) {
    auto outcome = conn->sock.RecvRaw(chunk, sizeof(chunk));
    if (!outcome.ok()) {
      conn->dead = true;
      return;
    }
    if (outcome->would_block) break;
    if (outcome->closed) {
      // Half-close: the peer is done sending but may still be waiting
      // for responses to everything already pipelined.
      conn->read_open = false;
      break;
    }
    conn->read_buf.append(chunk, outcome->bytes);
    if (outcome->bytes < sizeof(chunk)) break;  // drained the socket
  }
  ExtractFrames(conn);
}

void EventLoop::ExtractFrames(Conn* conn) {
  size_t start = 0;
  while (conn->pending.size() < options_.max_pipeline_depth) {
    const size_t newline = conn->read_buf.find('\n', start);
    if (newline == std::string::npos) break;
    std::string line = conn->read_buf.substr(start, newline - start);
    start = newline + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;  // tolerate blank keep-alive lines
    conn->pending.push_back(std::move(line));
  }
  if (start > 0) conn->read_buf.erase(0, start);
  if (conn->read_buf.size() > options_.max_line_bytes) {
    // An unterminated frame beyond the cap cannot be re-synchronized.
    conn->dead = true;
    return;
  }
  // Backpressure: once the pipeline queue is full, stop reading and let
  // TCP flow control push back on the sender; reading resumes as the
  // queue drains in Pump().
  conn->read_paused = conn->pending.size() >= options_.max_pipeline_depth;
}

void EventLoop::Pump(Conn* conn) {
  // Frames freed by the un-pause tail must be dispatched right here:
  // HandleReadable already drained the kernel buffer, so no further
  // EPOLLIN will arrive to pick them up — hence the outer loop.
  for (bool progressed = true; progressed;) {
    progressed = false;
    while (!conn->executing && !conn->dead && !conn->close_after_flush &&
           !conn->pending.empty()) {
      std::string line = std::move(conn->pending.front());
      conn->pending.pop_front();
      conn->executing = true;
      // The dispatcher may complete synchronously (clearing `executing`
      // before returning) or asynchronously from a worker thread — in
      // which case this loop exits and resumes on completion delivery.
      callbacks_.dispatch(std::move(line), MakeDone(conn->id));
    }
    // Resume reading once the queue drained below half depth — with a
    // floor of one slot, so depth 1 resumes on an empty queue instead
    // of comparing against depth/2 == 0 (never true).
    const size_t resume_below =
        std::max<size_t>(1, options_.max_pipeline_depth / 2);
    if (conn->read_paused && !conn->dead && !conn->close_after_flush &&
        conn->pending.size() < resume_below) {
      conn->read_paused = false;
      const size_t before = conn->pending.size();
      ExtractFrames(conn);  // frames may already be buffered
      progressed = conn->pending.size() > before;
    }
  }
}

void EventLoop::Flush(Conn* conn) {
  if (conn->dead) return;
  while (conn->write_off < conn->write_buf.size()) {
    auto outcome = conn->sock.SendRaw(conn->write_buf.data() + conn->write_off,
                                      conn->write_buf.size() - conn->write_off);
    if (!outcome.ok() || outcome->closed) {
      conn->dead = true;
      return;
    }
    if (outcome->would_block) return;
    conn->write_off += outcome->bytes;
  }
  conn->write_buf.clear();
  conn->write_off = 0;
}

void EventLoop::UpdateInterest(Conn* conn) {
  if (conn->dead) return;
  const bool want_read = conn->read_open && !conn->read_paused;
  const bool want_write = conn->write_off < conn->write_buf.size();
  if (want_read == conn->read_armed && want_write == conn->write_armed) {
    return;  // interest unchanged; skip the syscall
  }
  epoll_.Modify(conn->sock.fd(), conn->id, want_read, want_write);
  conn->read_armed = want_read;
  conn->write_armed = want_write;
}

void EventLoop::MaybeClose(Conn* conn) {
  const bool flushed = conn->write_off >= conn->write_buf.size();
  const bool idle = !conn->executing && conn->pending.empty();
  if (conn->dead || (conn->close_after_flush && flushed && idle) ||
      (!conn->read_open && idle && flushed)) {
    CloseConn(conn->id);
  }
}

void EventLoop::CloseConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  const Conn& conn = *it->second;
  // A close that strands work — an I/O error, an undelivered response,
  // or unexecuted pipelined frames — is an abort, not a clean goodbye.
  // The chaos harness reconciles this count against client-side kills.
  if (conn.dead || conn.write_off < conn.write_buf.size() ||
      conn.executing || !conn.pending.empty()) {
    aborted_.fetch_add(1, std::memory_order_relaxed);
  }
  epoll_.Remove(it->second->sock.fd());
  it->second->sock.ShutdownBoth();
  conns_.erase(it);
  live_.fetch_sub(1, std::memory_order_relaxed);
}

void EventLoop::ApplyCompletion(const Completion& completion) {
  auto it = conns_.find(completion.conn_id);
  if (it == conns_.end()) return;  // connection died while job ran
  Conn* conn = it->second.get();
  conn->executing = false;
  conn->write_buf += completion.response;
  conn->write_buf += '\n';
  if (!completion.keep_open) {
    conn->close_after_flush = true;
    // Frames pipelined behind a closing response are dropped (the
    // connection closes after this reply); keeping them would park the
    // connection forever, since they never execute and MaybeClose waits
    // for an empty queue.
    conn->pending.clear();
    conn->read_buf.clear();
  }
}

void EventLoop::DrainMailbox() {
  std::vector<Socket> adopted;
  std::vector<Completion> completions;
  {
    std::lock_guard<std::mutex> lock(mailbox_mu_);
    adopted.swap(adopted_);
    completions.swap(completions_);
  }
  for (Socket& sock : adopted) {
    if (!sock.SetNonBlocking(true).ok()) continue;
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>();
    conn->id = id;
    conn->sock = std::move(sock);
    if (!epoll_.Add(conn->sock.fd(), id).ok()) continue;
    conns_[id] = std::move(conn);
    live_.fetch_add(1, std::memory_order_relaxed);
    // Bytes may already be queued on a fresh socket; poll it once.
    Conn* raw = conns_[id].get();
    HandleReadable(raw);
    Pump(raw);
    Flush(raw);
    UpdateInterest(raw);
    MaybeClose(raw);
  }
  for (const Completion& completion : completions) {
    ApplyCompletion(completion);
    auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;
    Conn* conn = it->second.get();
    Pump(conn);
    Flush(conn);
    UpdateInterest(conn);
    MaybeClose(conn);
  }
}

void EventLoop::FinishAndStop() {
  // Called after the server drained the job queue: every completion is
  // already in the mailbox (jobs post before they count as finished).
  // Deliver them, then keep polling briefly to flush response bytes to
  // slow readers — the drain contract says in-flight responses reach
  // their clients.
  accepting_ = false;
  if (listener_ != nullptr) epoll_.Remove(listener_->fd());
  DrainMailbox();
  for (auto& [id, conn] : conns_) {
    Flush(conn.get());
    UpdateInterest(conn.get());
  }
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             options_.stop_flush_seconds));
  std::vector<Epoll::Event> events;
  for (;;) {
    bool pending = false;
    for (auto& [id, conn] : conns_) {
      if (!conn->dead && conn->write_off < conn->write_buf.size()) {
        pending = true;
        break;
      }
    }
    if (!pending || Clock::now() >= deadline) break;
    if (!epoll_.Wait(50, &events).ok()) break;
    for (const Epoll::Event& event : events) {
      auto it = conns_.find(event.tag);
      if (it == conns_.end()) continue;
      if (event.writable) Flush(it->second.get());
      if (event.hangup) it->second->dead = true;
    }
  }
  std::vector<uint64_t> ids;
  ids.reserve(conns_.size());
  for (auto& [id, conn] : conns_) ids.push_back(id);
  for (uint64_t id : ids) CloseConn(id);
}

}  // namespace fdx
