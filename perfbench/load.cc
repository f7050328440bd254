// pb_load — closed-loop fdxd client for the benchmark's service workloads.
//
// One thread drives every connection through poll(): requests are
// framed as one JSON object per line, responses come back in request
// order per connection, and each request's latency runs from the moment
// it is queued for sending to the moment its response line is complete.
// Every response is checked; a response that fails its check counts as
// failed and still counts as attempted.
//
//   pb_load sessions --port=P --ids=a,b,.. --data=DIR --batch-rows=N
//                    --first-batch=B --rounds=R --out=FILE
//     Connection i owns session ids[i] and feeds it rows of DIR/s<i>.csv
//     (headerless) at depth 1: append batch B+r, then discover, for R
//     rounds. An append must acknowledge the expected total row count
//     and a discover must report it. Latencies are kept per op and per
//     round (append queued to discover answered). Writes DIR/final<i>.json
//     with each session's last discover response.
//
//   pb_load reads --port=P --ids=a,b,.. --expect=DIR --requests=N
//                 --window=W --status-pct=P --seed=S --out=FILE
//     Connection i keeps W requests in flight against session ids[i]:
//     `status` with probability P%, otherwise a session `discover`,
//     which must be byte-identical to DIR/primed<i>.json. N requests in
//     total, split evenly across the connections.
//
// FILE receives {"attempted":..,"failed":..,"wall_s":..,"first_error":..,
// "latency_ms":{"<op>":[..]}}. Exit codes: 0 ran to completion (check
// "failed"), 1 connection failure or stall, 2 usage.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

std::string Flag(int argc, char** argv, const std::string& name,
                 const std::string& fallback = "") {
  const std::string prefix = "--" + name + "=";
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

long FlagInt(int argc, char** argv, const std::string& name, long fallback) {
  const std::string v = Flag(argc, argv, name);
  return v.empty() ? fallback : std::strtol(v.c_str(), nullptr, 10);
}

std::vector<std::string> Split(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream in(text);
  while (std::getline(in, item, sep)) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

struct Pending {
  std::string op;
  Clock::time_point queued;
  std::string expect;  ///< substring (or, for reads, exact line) to match
  bool exact = false;
};

/// One connection's framing state; the workload logic decides what to
/// send next in its response callback.
struct Conn {
  int fd = -1;
  std::string out;
  size_t out_pos = 0;
  std::string in;
  std::deque<Pending> pending;
  bool done = false;

  void Queue(const std::string& op, std::string request, std::string expect,
             bool exact) {
    out += request;
    out.push_back('\n');
    pending.push_back({op, Clock::now(), std::move(expect), exact});
  }
};

struct Stats {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  std::map<std::string, std::vector<double>> latency_ms;

  void Record(const Pending& p, const std::string& line,
              Clock::time_point now) {
    ++attempted;
    latency_ms[p.op].push_back(
        std::chrono::duration<double, std::milli>(now - p.queued).count());
    const bool ok = p.exact ? line == p.expect
                            : line.find(p.expect) != std::string::npos;
    if (!ok) {
      ++failed;
      if (first_error.empty()) first_error = p.op + ": " + line.substr(0, 300);
    }
  }
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n') {
      out += "\\n";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Runs the poll loop until every connection is done. `on_line` handles
/// one response line for connection i (after its Pending was popped and
/// recorded). Returns false on a socket error or a 60 s stall.
template <typename OnLine>
bool Pump(std::vector<Conn>& conns, Stats* stats, OnLine on_line) {
  std::vector<pollfd> fds(conns.size());
  auto last_progress = Clock::now();
  char buf[1 << 16];
  while (true) {
    bool all_done = true;
    for (size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (!c.done) all_done = false;
      fds[i].fd = c.fd;
      fds[i].events = POLLIN;
      if (c.out_pos < c.out.size()) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    if (all_done) return true;
    const int n = ::poll(fds.data(), fds.size(), 1000);
    if (n < 0 && errno != EINTR) return false;
    if (Clock::now() - last_progress > std::chrono::seconds(60)) {
      std::fprintf(stderr, "pb_load: no progress for 60 s\n");
      return false;
    }
    for (size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (fds[i].revents & POLLOUT) {
        const ssize_t w = ::send(c.fd, c.out.data() + c.out_pos,
                                 c.out.size() - c.out_pos, MSG_NOSIGNAL);
        if (w < 0 && errno != EAGAIN && errno != EINTR) return false;
        if (w > 0) {
          c.out_pos += static_cast<size_t>(w);
          if (c.out_pos == c.out.size()) {
            c.out.clear();
            c.out_pos = 0;
          }
        }
      }
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        const ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
        if (r == 0 || (r < 0 && errno != EAGAIN && errno != EINTR)) {
          std::fprintf(stderr, "pb_load: connection %zu closed\n", i);
          return false;
        }
        if (r < 0) continue;
        last_progress = Clock::now();
        c.in.append(buf, static_cast<size_t>(r));
        size_t start = 0;
        for (size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
             start = nl + 1) {
          const std::string line = c.in.substr(start, nl - start);
          if (c.pending.empty()) {
            std::fprintf(stderr, "pb_load: unsolicited response\n");
            return false;
          }
          const Pending p = c.pending.front();
          c.pending.pop_front();
          stats->Record(p, line, Clock::now());
          on_line(i, p, line);
        }
        c.in.erase(0, start);
      }
    }
  }
}

bool WriteStats(const std::string& path, const Stats& stats, double wall_s) {
  std::ofstream out(path);
  out << "{\"attempted\":" << stats.attempted << ",\"failed\":" << stats.failed
      << ",\"wall_s\":" << wall_s << ",\"first_error\":\""
      << JsonEscape(stats.first_error) << "\",\"latency_ms\":{";
  bool first = true;
  for (const auto& [op, values] : stats.latency_ms) {
    out << (first ? "" : ",") << "\"" << op << "\":[";
    first = false;
    for (size_t i = 0; i < values.size(); ++i) {
      out << (i ? "," : "") << values[i];
    }
    out << "]";
  }
  out << "}}\n";
  return static_cast<bool>(out);
}

std::vector<Conn> ConnectAll(int port, size_t n) {
  std::vector<Conn> conns(n);
  for (Conn& c : conns) {
    c.fd = Connect(port);
    if (c.fd < 0) {
      std::fprintf(stderr, "pb_load: cannot connect to port %d\n", port);
      conns.clear();
      return conns;
    }
  }
  return conns;
}

int Sessions(int argc, char** argv) {
  const int port = static_cast<int>(FlagInt(argc, argv, "port", 0));
  const std::vector<std::string> ids = Split(Flag(argc, argv, "ids"), ',');
  const std::string data = Flag(argc, argv, "data");
  const long batch_rows = FlagInt(argc, argv, "batch-rows", 0);
  const long first_batch = FlagInt(argc, argv, "first-batch", 0);
  const long rounds = FlagInt(argc, argv, "rounds", 0);
  const std::string out = Flag(argc, argv, "out");
  if (port <= 0 || ids.empty() || data.empty() || batch_rows <= 0 ||
      rounds <= 0 || out.empty()) {
    std::fprintf(stderr, "pb_load sessions: missing flags\n");
    return 2;
  }
  // Batch texts per session, as JSON-escaped headerless CSV.
  std::vector<std::vector<std::string>> batches(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    std::string text;
    if (!ReadFile(data + "/s" + std::to_string(i) + ".csv", &text)) {
      std::fprintf(stderr, "pb_load: cannot read session data %zu\n", i);
      return 1;
    }
    std::vector<std::string> lines = Split(text, '\n');
    if (static_cast<long>(lines.size()) <
        (first_batch + rounds) * batch_rows) {
      std::fprintf(stderr, "pb_load: session data %zu too short\n", i);
      return 1;
    }
    for (long b = first_batch; b < first_batch + rounds; ++b) {
      std::string batch;
      for (long r = b * batch_rows; r < (b + 1) * batch_rows; ++r) {
        batch += lines[static_cast<size_t>(r)];
        batch.push_back('\n');
      }
      batches[i].push_back(JsonEscape(batch));
    }
  }
  std::vector<Conn> conns = ConnectAll(port, ids.size());
  if (conns.empty()) return 1;
  std::vector<long> round(ids.size(), 0);
  std::vector<Clock::time_point> round_start(ids.size());
  std::vector<std::string> last_discover(ids.size());
  const auto send_append = [&](size_t i) {
    round_start[i] = Clock::now();
    const long total = (first_batch + round[i] + 1) * batch_rows;
    conns[i].Queue("append",
                   "{\"op\":\"append\",\"session\":\"" + ids[i] +
                       "\",\"csv\":\"" + batches[i][round[i]] + "\"}",
                   "\"ok\":true,\"op\":\"append\",\"session\":\"" + ids[i] +
                       "\",\"rows\":" + std::to_string(batch_rows) +
                       ",\"total_rows\":" + std::to_string(total) + ",",
                   false);
  };
  Stats stats;
  const auto start = Clock::now();
  for (size_t i = 0; i < ids.size(); ++i) send_append(i);
  const bool ran = Pump(conns, &stats, [&](size_t i, const Pending& p,
                                          const std::string& line) {
    if (p.op == "append") {
      const long total = (first_batch + round[i] + 1) * batch_rows;
      conns[i].Queue("discover",
                     "{\"op\":\"discover\",\"session\":\"" + ids[i] + "\"}",
                     "{\"ok\":true,\"op\":\"discover\",\"rows\":" +
                         std::to_string(total) + ",",
                     false);
      return;
    }
    last_discover[i] = line;
    // A round runs from queueing the batch to the FD set coming back.
    stats.latency_ms["round"].push_back(
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  round_start[i])
            .count());
    if (++round[i] < rounds) {
      send_append(i);
    } else {
      conns[i].done = true;
    }
  });
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (Conn& c : conns) ::close(c.fd);
  if (!ran) return 1;
  for (size_t i = 0; i < ids.size(); ++i) {
    std::ofstream f(data + "/final" + std::to_string(i) + ".json",
                    std::ios::binary);
    f << last_discover[i];
  }
  return WriteStats(out, stats, wall) ? 0 : 1;
}

int Reads(int argc, char** argv) {
  const int port = static_cast<int>(FlagInt(argc, argv, "port", 0));
  const std::vector<std::string> ids = Split(Flag(argc, argv, "ids"), ',');
  const std::string expect_dir = Flag(argc, argv, "expect");
  const long requests = FlagInt(argc, argv, "requests", 0);
  const long window = FlagInt(argc, argv, "window", 16);
  const long status_pct = FlagInt(argc, argv, "status-pct", 10);
  const uint64_t seed = static_cast<uint64_t>(FlagInt(argc, argv, "seed", 1));
  const std::string out = Flag(argc, argv, "out");
  if (port <= 0 || ids.empty() || expect_dir.empty() || requests <= 0 ||
      window <= 0 || out.empty()) {
    std::fprintf(stderr, "pb_load reads: missing flags\n");
    return 2;
  }
  std::vector<std::string> expected(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    if (!ReadFile(expect_dir + "/primed" + std::to_string(i) + ".json",
                  &expected[i])) {
      std::fprintf(stderr, "pb_load: missing primed response %zu\n", i);
      return 1;
    }
  }
  std::vector<Conn> conns = ConnectAll(port, ids.size());
  if (conns.empty()) return 1;
  const long per_conn = requests / static_cast<long>(ids.size());
  if (per_conn <= 0) {
    std::fprintf(stderr, "pb_load reads: fewer requests than connections\n");
    return 2;
  }
  std::vector<long> sent(ids.size(), 0);
  std::vector<long> answered(ids.size(), 0);
  std::vector<uint64_t> rng(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    rng[i] = (seed * 1000003 + i + 1) * 0x9e3779b97f4a7c15ull;  // never 0
  }
  const auto send_one = [&](size_t i) {
    // xorshift64: a deterministic op mix per connection.
    uint64_t& x = rng[i];
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if (static_cast<long>(x % 100) < status_pct) {
      conns[i].Queue("status", "{\"op\":\"status\"}",
                     "{\"ok\":true,\"op\":\"status\",", false);
    } else {
      conns[i].Queue("discover",
                     "{\"op\":\"discover\",\"session\":\"" + ids[i] + "\"}",
                     expected[i], true);
    }
    ++sent[i];
  };
  Stats stats;
  const auto start = Clock::now();
  for (size_t i = 0; i < ids.size(); ++i) {
    while (sent[i] < per_conn && sent[i] < window) send_one(i);
  }
  const bool ran = Pump(conns, &stats,
                        [&](size_t i, const Pending&, const std::string&) {
                          if (sent[i] < per_conn) send_one(i);
                          if (++answered[i] == per_conn) conns[i].done = true;
                        });
  const double wall =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (Conn& c : conns) ::close(c.fd);
  if (!ran) return 1;
  return WriteStats(out, stats, wall) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "sessions") return Sessions(argc, argv);
  if (mode == "reads") return Reads(argc, argv);
  std::fprintf(stderr, "usage: pb_load sessions|reads --port=P ...\n");
  return 2;
}
