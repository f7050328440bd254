// fdxload — load generator and latency harness for the fdxd daemon.
//
// Drives thousands of concurrent connections from a single epoll-based
// client thread: every connection is non-blocking, requests may be
// pipelined (--pipeline in-flight per connection), and responses are
// matched to requests in order (the daemon guarantees request-order
// responses per connection). Each client opens one dataset session and
// then issues a deterministic mixed stream of `discover` (a shared
// one-shot table, so the daemon's result cache converges to hits),
// `append` (to the client's own session), and `status` requests.
//
// Latency is measured per request type from enqueue to response line
// (client-perceived, queueing included) and reported as p50/p95/p99
// alongside aggregate throughput, appended as one labelled run into a
// JSON benchmark file:
//
//   { "benchmark": "fdxd_load",
//     "runs": [ { "label": "depth16", "io_threads": 4, "clients": 64, ...,
//                 "request_types": { "discover": {"count":..,
//                   "p50_ms":.., "p95_ms":.., "p99_ms":..}, ... } } ] }
//
// Re-running with the same --label replaces that run, so a script can
// build one file comparing, say, `--pipeline=1 --label=depth1` with
// `--pipeline=16 --label=depth16`.
//
// Flags (numeric values are strict: a malformed or out-of-range value
// exits 2 naming the flag):
//   --port=N | --port-file=PATH  target an already-running daemon
//   --self-host                  start an in-process FdxServer instead
//   --io-threads=N --workers=N --queue-capacity=N --cache-capacity=N
//                                self-host server tuning (--io-threads
//                                defaults to the server's: one event
//                                loop per hardware thread)
//   --clients=N                  concurrent connections  (default 64)
//   --requests=N                 mix requests per client (default 50)
//   --pipeline=N                 in-flight per connection (default 4)
//   --discover-pct=P --append-pct=P   traffic mix        (default 60/20;
//                                remainder is `status`)
//   --label=STR                  run label in the output (default
//                                "self-host" or "external")
//   --out=PATH                   benchmark file (default BENCH_service.json)
//
// Chaos mode (--chaos) turns the harness into a crash-consistency
// checker: every --chaos-kill-every'th client abruptly closes its
// socket halfway through its mix — mid-pipeline, with requests still in
// flight — then reconnects, resumes its *existing* session, and resends
// the requests whose responses were lost. The run verifies response
// integrity under this abuse: every successful discover response across
// the whole fleet must be byte-identical to the first one seen (they
// all query the same shared table), every line must parse, and
// responses must reconcile one-to-one with requests. Kill/reconnect/
// resend counters land in a "chaos" object in the run JSON.
//
// If the daemon disappears mid-run the harness does not crash or hang:
// a stall watchdog aborts the run, the partial results are written with
// "aborted": true, and the exit code is 1.
//
// Exit codes: 0 success, 1 runtime failure (connect/protocol errors,
// chaos verification failure, aborted run), 2 usage.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/json_parser.h"
#include "service/server.h"
#include "util/epoll.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/socket.h"

namespace fdx::load {
namespace {

using Clock = std::chrono::steady_clock;

enum RequestType : size_t {
  kOpen = 0,
  kDiscover,
  kAppend,
  kStatus,
  kTypeCount,
};

const char* TypeName(size_t type) {
  switch (type) {
    case kOpen:
      return "open";
    case kDiscover:
      return "discover";
    case kAppend:
      return "append";
    case kStatus:
      return "status";
    default:
      return "unknown";
  }
}

struct Config {
  uint16_t port = 0;
  std::string port_file;
  bool self_host = false;
  size_t io_threads = 0;  ///< 0: one event loop per hardware thread
  size_t workers = 2;
  size_t queue_capacity = 64;
  size_t cache_capacity = 256;
  size_t clients = 64;
  size_t requests_per_client = 50;
  size_t pipeline = 4;
  size_t discover_pct = 60;
  size_t append_pct = 20;
  bool chaos = false;
  size_t chaos_kill_every = 3;  ///< every N-th client gets killed once
  std::string label;
  std::string out = "BENCH_service.json";
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: fdxload (--port=N | --port-file=PATH | --self-host)\n"
      "               [--io-threads=N] [--workers=N]\n"
      "               [--queue-capacity=N] [--cache-capacity=N]\n"
      "               [--clients=N] [--requests=N] [--pipeline=N]\n"
      "               [--discover-pct=P] [--append-pct=P]\n"
      "               [--chaos] [--chaos-kill-every=N]\n"
      "               [--label=STR] [--out=PATH]\n");
  return 2;
}

void RaiseFdLimit() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  if (limit.rlim_cur >= limit.rlim_max) return;
  limit.rlim_cur = limit.rlim_max;
  ::setrlimit(RLIMIT_NOFILE, &limit);
}

/// One connection of the load fleet.
struct Client {
  enum class Phase { kConnecting, kOpening, kRunning, kDone, kFailed };

  uint64_t id = 0;
  Socket sock;
  Phase phase = Phase::kConnecting;
  std::string session_id;
  std::string read_buf;
  std::string write_buf;
  size_t write_off = 0;
  bool want_write_armed = false;
  /// (request type, enqueue time); responses arrive in request order.
  std::deque<std::pair<size_t, Clock::time_point>> in_flight;
  size_t sent = 0;      ///< mix requests sent
  size_t received = 0;  ///< mix responses received
  bool setup_done = false;   ///< open response processed (phase-2 member)
  bool killed = false;       ///< this client already took its chaos kill
  bool kill_pending = false; ///< kill deferred to the end of OnReadable
};

struct TypeStats {
  std::vector<double> latencies_ms;
  uint64_t errors = 0;
};

/// The epoll client engine: owns the fleet, the per-type latency
/// samples, and the two-phase run (connect+open, then the timed mix).
class LoadEngine {
 public:
  explicit LoadEngine(const Config& config) : config_(config) {}

  bool Run(uint16_t port) {
    Result<Epoll> epoll = Epoll::Create();
    if (!epoll.ok()) {
      std::fprintf(stderr, "fdxload: %s\n", epoll.status().ToString().c_str());
      return false;
    }
    epoll_ = std::move(epoll).value();
    port_ = port;
    pending_setup_ = config_.clients;
    pending_runs_ = config_.clients;

    // Phase 1: connect the whole fleet and open one session per client.
    // Untimed — session setup is not part of the measured workload.
    for (size_t i = 0; i < config_.clients; ++i) {
      auto client = std::make_unique<Client>();
      client->id = i + 1;
      Result<Socket> sock = Socket::ConnectLoopbackAsync(port);
      if (!sock.ok()) {
        std::fprintf(stderr, "fdxload: connect: %s\n",
                     sock.status().ToString().c_str());
        return false;
      }
      client->sock = std::move(sock).value();
      if (!epoll_.Add(client->sock.fd(), client->id, /*want_write=*/true)
               .ok()) {
        std::fprintf(stderr, "fdxload: epoll add failed\n");
        return false;
      }
      client->want_write_armed = true;
      clients_[client->id] = std::move(client);
    }
    if (!Loop([this] { return pending_setup_ == 0; })) return false;

    // Phase 2: the timed mix.
    const Clock::time_point t0 = Clock::now();
    for (auto& [id, client] : clients_) {
      if (client->phase != Client::Phase::kRunning) continue;
      FillPipeline(client.get());
      Flush(client.get());
      UpdateInterest(client.get());
    }
    const bool completed = Loop([this] { return pending_runs_ == 0; });
    // Even an aborted run reports how long it actually ran.
    elapsed_seconds_ = std::chrono::duration<double>(Clock::now() - t0).count();
    if (!completed) return false;
    if (fingerprint_mismatches_ > 0 || torn_lines_ > 0) {
      std::fprintf(stderr,
                   "fdxload: chaos verification FAILED: %llu fingerprint "
                   "mismatches, %llu torn lines\n",
                   static_cast<unsigned long long>(fingerprint_mismatches_),
                   static_cast<unsigned long long>(torn_lines_));
      return false;
    }
    return failures_ == 0;
  }

  double elapsed_seconds() const { return elapsed_seconds_; }
  uint64_t total_responses() const { return total_responses_; }
  const TypeStats& stats(size_t type) const { return stats_[type]; }
  uint64_t chaos_kills() const { return chaos_kills_; }
  uint64_t chaos_reconnects() const { return chaos_reconnects_; }
  uint64_t chaos_resent() const { return chaos_resent_; }
  uint64_t fingerprint_mismatches() const { return fingerprint_mismatches_; }
  uint64_t torn_lines() const { return torn_lines_; }

 private:
  /// Pumps the epoll loop until `finished` holds (or the fleet dies).
  /// A stall watchdog guarantees forward progress or a clean abort: if
  /// no response arrives and no client fails for ~30s (a vanished or
  /// wedged daemon), the run aborts instead of hanging forever.
  bool Loop(const std::function<bool()>& finished) {
    std::vector<Epoll::Event> events;
    uint64_t last_mark = ProgressMark();
    Clock::time_point last_progress = Clock::now();
    while (!finished()) {
      if (live_clients() == 0) {
        std::fprintf(stderr, "fdxload: all connections failed\n");
        return false;
      }
      if (!epoll_.Wait(5000, &events).ok()) {
        std::fprintf(stderr, "fdxload: epoll wait failed\n");
        return false;
      }
      // Wall-clock watchdog, deliberately not a wait counter: under
      // fragmented I/O (e.g. injected one-byte reads) a single response
      // takes hundreds of instant event rounds, and counting those as
      // stalls would abort a run that is progressing fine.
      const uint64_t mark = ProgressMark();
      if (mark != last_mark) {
        last_mark = mark;
        last_progress = Clock::now();
      } else if (std::chrono::duration<double>(Clock::now() - last_progress)
                     .count() > 30.0) {
        std::fprintf(stderr,
                     "fdxload: no progress for 30s with %zu clients live; "
                     "aborting (daemon gone?)\n",
                     live_clients());
        return false;
      }
      for (const Epoll::Event& event : events) {
        auto it = clients_.find(event.tag);
        if (it == clients_.end()) continue;
        Client* client = it->second.get();
        if (client->phase == Client::Phase::kConnecting &&
            (event.writable || event.hangup)) {
          OnConnected(client);
        }
        if (event.readable || event.hangup) OnReadable(client);
        if (event.writable) Flush(client);
        UpdateInterest(client);
      }
    }
    return true;
  }

  size_t live_clients() const {
    return clients_.size() - failed_ - done_;
  }

  /// Monotone activity counter for the stall watchdog.
  uint64_t ProgressMark() const {
    return responses_seen_ + failed_ + done_;
  }

  void OnConnected(Client* client) {
    Status connected = client->sock.FinishConnect();
    if (!connected.ok()) {
      Fail(client, "connect", connected.ToString());
      return;
    }
    if (!client->session_id.empty()) {
      // Chaos reconnect: the session outlives the connection server-side,
      // so the client resumes it directly and resends the lost requests.
      client->phase = Client::Phase::kRunning;
      FillPipeline(client);
      Flush(client);
      return;
    }
    client->phase = Client::Phase::kOpening;
    // Session open: measured like any request but reported separately.
    Enqueue(client, kOpen,
            "{\"op\":\"open\",\"schema\":[\"a\",\"b\",\"c\"]}");
    Flush(client);
  }

  void Enqueue(Client* client, size_t type, const std::string& request) {
    client->write_buf += request;
    client->write_buf += '\n';
    client->in_flight.emplace_back(type, Clock::now());
  }

  /// Deterministic per-client, per-index traffic mix.
  size_t MixType(const Client& client, size_t index) const {
    const uint64_t h =
        (client.id * 40503u + index * 2654435761u) % 100u;
    if (h < config_.discover_pct) return kDiscover;
    if (h < config_.discover_pct + config_.append_pct) return kAppend;
    return kStatus;
  }

  std::string BuildRequest(Client* client, size_t type, size_t index) const {
    switch (type) {
      case kDiscover:
        // Identical table bytes across the fleet: after the first solve
        // the daemon answers from the result cache (the cached-discover
        // hot path this benchmark exists to measure).
        return "{\"op\":\"discover\",\"table\":{\"schema\":[\"x\",\"y\",\"z\"],"
               "\"rows\":[[1,2,3],[2,4,6],[3,6,9],[4,8,12]]}}";
      case kAppend:
        // Two rows: the engine's batch-local pairing needs >= 2.
        return "{\"op\":\"append\",\"session\":\"" + client->session_id +
               "\",\"rows\":[[" + std::to_string(index % 7) + "," +
               std::to_string(index % 5) + "," + std::to_string(index % 3) +
               "],[" + std::to_string((index + 1) % 7) + "," +
               std::to_string((index + 1) % 5) + "," +
               std::to_string((index + 1) % 3) + "]]}";
      default:
        return "{\"op\":\"status\"}";
    }
  }

  void FillPipeline(Client* client) {
    if (client->phase != Client::Phase::kRunning) return;
    while (client->in_flight.size() < config_.pipeline &&
           client->sent < config_.requests_per_client) {
      const size_t type = MixType(*client, client->sent);
      Enqueue(client, type, BuildRequest(client, type, client->sent));
      ++client->sent;
    }
  }

  void OnReadable(Client* client) {
    if (client->phase == Client::Phase::kDone ||
        client->phase == Client::Phase::kFailed) {
      return;
    }
    char chunk[16 * 1024];
    for (;;) {
      Result<IoOutcome> outcome = client->sock.RecvRaw(chunk, sizeof(chunk));
      if (!outcome.ok()) {
        Fail(client, "recv", outcome.status().ToString());
        return;
      }
      if (outcome->would_block) break;
      if (outcome->closed) {
        if (client->received < config_.requests_per_client) {
          Fail(client, "recv", "server closed the connection early");
        }
        return;
      }
      client->read_buf.append(chunk, outcome->bytes);
      if (outcome->bytes < sizeof(chunk)) break;
    }
    size_t start = 0;
    for (;;) {
      const size_t newline = client->read_buf.find('\n', start);
      if (newline == std::string::npos) break;
      std::string line = client->read_buf.substr(start, newline - start);
      start = newline + 1;
      OnResponse(client, line);
      if (client->phase == Client::Phase::kDone ||
          client->phase == Client::Phase::kFailed) {
        return;
      }
    }
    if (start > 0) client->read_buf.erase(0, start);
    FillPipeline(client);
    Flush(client);
    if (client->kill_pending) {
      // Deferred from OnResponse so the kill never races the buffered
      // lines of the connection it is about to destroy — and run AFTER
      // the refill so the connection dies with requests genuinely in
      // flight (the torn-pipeline case the resend path must absorb).
      client->kill_pending = false;
      KillAndReconnect(client);
    }
  }

  void OnResponse(Client* client, const std::string& line) {
    ++responses_seen_;
    if (client->in_flight.empty()) {
      Fail(client, "protocol", "response without a pending request");
      return;
    }
    const auto [type, sent_at] = client->in_flight.front();
    client->in_flight.pop_front();
    const double latency_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - sent_at)
            .count();
    stats_[type].latencies_ms.push_back(latency_ms);

    Result<JsonValue> parsed = JsonValue::Parse(line);
    if (!parsed.ok()) ++torn_lines_;
    const bool ok = parsed.ok() && parsed->BoolOr("ok", false);
    if (!ok) ++stats_[type].errors;

    if (type == kOpen) {
      if (!ok) {
        Fail(client, "open", line);
        return;
      }
      client->session_id = parsed->StringOr("session", "");
      client->phase = Client::Phase::kRunning;
      client->setup_done = true;
      --pending_setup_;
      return;  // the timed phase fills the pipeline
    }

    if (type == kDiscover && ok) {
      // Every client discovers the identical shared table, so every
      // successful response must be byte-identical to the first one —
      // a duplicated, interleaved, or torn result cannot pass this.
      if (discover_reference_.empty()) {
        discover_reference_ = line;
      } else if (line != discover_reference_) {
        ++fingerprint_mismatches_;
      }
    }

    ++client->received;
    ++total_responses_;
    if (client->received >= config_.requests_per_client) {
      client->phase = Client::Phase::kDone;
      epoll_.Remove(client->sock.fd());
      client->sock.ShutdownBoth();
      ++done_;
      --pending_runs_;
      return;
    }
    if (config_.chaos && !client->killed &&
        config_.chaos_kill_every > 0 &&
        client->id % config_.chaos_kill_every == 0 &&
        client->received ==
            std::max<size_t>(1, config_.requests_per_client / 2)) {
      client->killed = true;
      client->kill_pending = true;  // executed after the read-buffer drain
    }
  }

  /// Chaos: abruptly drop the connection mid-pipeline, then reconnect
  /// and resume the same session, resending what was lost. The requests
  /// are regenerated deterministically from the per-index mix, so the
  /// retry sends exactly the request whose response never arrived.
  void KillAndReconnect(Client* client) {
    ++chaos_kills_;
    chaos_resent_ += client->in_flight.size();
    epoll_.Remove(client->sock.fd());
    client->sock.ShutdownBoth();
    client->in_flight.clear();
    client->read_buf.clear();
    client->write_buf.clear();
    client->write_off = 0;
    client->sent = client->received;  // regenerate the lost tail
    Result<Socket> sock = Socket::ConnectLoopbackAsync(port_);
    if (!sock.ok()) {
      Fail(client, "reconnect", sock.status().ToString());
      return;
    }
    client->sock = std::move(sock).value();
    client->phase = Client::Phase::kConnecting;
    if (!epoll_.Add(client->sock.fd(), client->id, /*want_write=*/true).ok()) {
      Fail(client, "reconnect", "epoll add failed");
      return;
    }
    client->want_write_armed = true;
    ++chaos_reconnects_;
  }

  void Flush(Client* client) {
    if (client->phase == Client::Phase::kDone ||
        client->phase == Client::Phase::kFailed ||
        client->phase == Client::Phase::kConnecting) {
      return;
    }
    while (client->write_off < client->write_buf.size()) {
      Result<IoOutcome> outcome =
          client->sock.SendRaw(client->write_buf.data() + client->write_off,
                               client->write_buf.size() - client->write_off);
      if (!outcome.ok() || outcome->closed) {
        Fail(client, "send", outcome.ok() ? "connection closed"
                                          : outcome.status().ToString());
        return;
      }
      if (outcome->would_block) return;
      client->write_off += outcome->bytes;
    }
    client->write_buf.clear();
    client->write_off = 0;
  }

  void UpdateInterest(Client* client) {
    if (client->phase == Client::Phase::kDone ||
        client->phase == Client::Phase::kFailed ||
        client->phase == Client::Phase::kConnecting) {
      // A connecting socket stays write-armed until OnConnected; poking
      // epoll here would disarm the connect-completion signal.
      return;
    }
    const bool want_write = client->write_off < client->write_buf.size();
    if (want_write == client->want_write_armed) return;
    epoll_.Modify(client->sock.fd(), client->id, /*want_read=*/true,
                  want_write);
    client->want_write_armed = want_write;
  }

  void Fail(Client* client, const char* where, const std::string& detail) {
    if (client->phase == Client::Phase::kFailed) return;
    if (failures_ < 5) {
      std::fprintf(stderr, "fdxload: client %llu failed at %s: %s\n",
                   static_cast<unsigned long long>(client->id), where,
                   detail.c_str());
    }
    // A chaos reconnect puts a mid-run client back into kConnecting, so
    // the phase alone cannot tell setup from run — setup_done can.
    const bool was_setup = !client->setup_done;
    client->phase = Client::Phase::kFailed;
    epoll_.Remove(client->sock.fd());
    client->sock.ShutdownBoth();
    ++failures_;
    ++failed_;
    if (was_setup) {
      --pending_setup_;
    } else {
      --pending_runs_;
    }
  }

  const Config config_;
  Epoll epoll_;
  std::unordered_map<uint64_t, std::unique_ptr<Client>> clients_;
  uint16_t port_ = 0;
  size_t pending_setup_ = 0;
  size_t pending_runs_ = 0;
  size_t done_ = 0;
  size_t failed_ = 0;
  uint64_t failures_ = 0;
  uint64_t total_responses_ = 0;
  uint64_t responses_seen_ = 0;
  double elapsed_seconds_ = 0.0;
  uint64_t chaos_kills_ = 0;
  uint64_t chaos_reconnects_ = 0;
  uint64_t chaos_resent_ = 0;
  uint64_t fingerprint_mismatches_ = 0;
  uint64_t torn_lines_ = 0;
  std::string discover_reference_;
  TypeStats stats_[kTypeCount];
};

double Percentile(std::vector<double>* sorted_ms, double p) {
  if (sorted_ms->empty()) return 0.0;
  const size_t index = static_cast<size_t>(
      p * static_cast<double>(sorted_ms->size() - 1) + 0.5);
  return (*sorted_ms)[std::min(index, sorted_ms->size() - 1)];
}

/// Renders this run's JSON object. `aborted` marks a run that ended
/// early (daemon vanished, verification failed) — its numbers are the
/// partial truth, not a completed measurement. `io_threads` is the
/// self-hosted server's event-loop count (0 against an external daemon,
/// whose count this harness cannot see; the field is then omitted).
std::string RenderRun(const Config& config, const std::string& label,
                      size_t io_threads, LoadEngine* engine, bool aborted) {
  JsonWriter json;
  json.BeginObject();
  json.Key("label");
  json.String(label);
  json.Key("aborted");
  json.Bool(aborted);
  if (io_threads > 0) {
    json.Key("io_threads");
    json.Integer(static_cast<int64_t>(io_threads));
  }
  json.Key("clients");
  json.Integer(static_cast<int64_t>(config.clients));
  json.Key("pipeline_depth");
  json.Integer(static_cast<int64_t>(config.pipeline));
  json.Key("requests_per_client");
  json.Integer(static_cast<int64_t>(config.requests_per_client));
  json.Key("requests");
  json.Integer(static_cast<int64_t>(engine->total_responses()));
  json.Key("elapsed_seconds");
  json.Number(engine->elapsed_seconds());
  const double throughput =
      engine->elapsed_seconds() > 0.0
          ? static_cast<double>(engine->total_responses()) /
                engine->elapsed_seconds()
          : 0.0;
  json.Key("throughput_rps");
  json.Number(throughput);
  json.Key("request_types");
  json.BeginObject();
  for (size_t type = 0; type < kTypeCount; ++type) {
    TypeStats stats = engine->stats(type);  // copy: sorted locally
    if (stats.latencies_ms.empty()) continue;
    std::sort(stats.latencies_ms.begin(), stats.latencies_ms.end());
    json.Key(TypeName(type));
    json.BeginObject();
    json.Key("count");
    json.Integer(static_cast<int64_t>(stats.latencies_ms.size()));
    json.Key("errors");
    json.Integer(static_cast<int64_t>(stats.errors));
    json.Key("p50_ms");
    json.Number(Percentile(&stats.latencies_ms, 0.50));
    json.Key("p95_ms");
    json.Number(Percentile(&stats.latencies_ms, 0.95));
    json.Key("p99_ms");
    json.Number(Percentile(&stats.latencies_ms, 0.99));
    json.Key("max_ms");
    json.Number(stats.latencies_ms.back());
    json.EndObject();
  }
  json.EndObject();
  if (config.chaos) {
    json.Key("chaos");
    json.BeginObject();
    json.Key("kills");
    json.Integer(static_cast<int64_t>(engine->chaos_kills()));
    json.Key("reconnects");
    json.Integer(static_cast<int64_t>(engine->chaos_reconnects()));
    json.Key("resent_requests");
    json.Integer(static_cast<int64_t>(engine->chaos_resent()));
    json.Key("fingerprint_mismatches");
    json.Integer(static_cast<int64_t>(engine->fingerprint_mismatches()));
    json.Key("torn_lines");
    json.Integer(static_cast<int64_t>(engine->torn_lines()));
    json.EndObject();
  }
  json.EndObject();
  return json.TakeString();
}

/// Merges `run_json` into the benchmark file: same-label runs are
/// replaced, others preserved, so differently labelled runs accumulate
/// into one comparison file.
bool WriteBenchFile(const std::string& path, const std::string& label,
                    const std::string& run_json) {
  std::vector<std::string> kept_runs;
  // JsonValue cannot re-serialize, so preserved runs are re-extracted
  // textually: each run object was written on one line by this tool.
  {
    std::ifstream in(path);
    if (in) {
      std::string line;
      while (std::getline(in, line)) {
        const size_t start = line.find("{\"label\":");
        if (start == std::string::npos) continue;
        std::string run = line.substr(start);
        if (!run.empty() && run.back() == ',') run.pop_back();
        Result<JsonValue> parsed = JsonValue::Parse(run);
        if (!parsed.ok()) continue;
        if (parsed->StringOr("label", "") == label) continue;
        kept_runs.push_back(run);
      }
    }
  }
  kept_runs.push_back(run_json);

  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "fdxload: cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\"benchmark\":\"fdxd_load\",\n  \"runs\":[\n";
  for (size_t i = 0; i < kept_runs.size(); ++i) {
    out << "    " << kept_runs[i];
    if (i + 1 < kept_runs.size()) out << ",";
    out << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

int Main(int argc, char** argv) {
  const Flags flags("fdxload", argc, argv, 1);
  const Status known = flags.CheckKnown(
      {"port=", "port-file=", "self-host", "io-threads=", "workers=",
       "queue-capacity=", "cache-capacity=", "clients=", "requests=",
       "pipeline=", "discover-pct=", "append-pct=", "chaos",
       "chaos-kill-every=", "label=", "out="});
  if (!known.ok()) {
    std::fprintf(stderr, "fdxload: %s\n", known.message().c_str());
    return Usage();
  }
  Config config;
  config.port = flags.GetPort("port", config.port);
  config.port_file = flags.Get("port-file");
  config.self_host = flags.Has("self-host");
  config.io_threads =
      flags.GetCount("io-threads", config.io_threads, 0, kMaxThreadsFlag);
  config.workers =
      flags.GetCount("workers", config.workers, 1, kMaxThreadsFlag);
  config.queue_capacity =
      flags.GetCount("queue-capacity", config.queue_capacity, 1);
  config.cache_capacity =
      flags.GetCount("cache-capacity", config.cache_capacity);
  config.clients = flags.GetCount("clients", config.clients, 1);
  config.requests_per_client =
      flags.GetCount("requests", config.requests_per_client, 1);
  config.pipeline = flags.GetCount("pipeline", config.pipeline, 1);
  config.discover_pct =
      flags.GetCount("discover-pct", config.discover_pct, 0, 100);
  config.append_pct = flags.GetCount("append-pct", config.append_pct, 0, 100);
  config.chaos = flags.Has("chaos");
  config.chaos_kill_every =
      flags.GetCount("chaos-kill-every", config.chaos_kill_every);
  config.label = flags.Get("label");
  config.out = flags.Get("out", config.out);
  if (config.discover_pct + config.append_pct > 100) return Usage();

  RaiseFdLimit();

  uint16_t port = config.port;
  std::unique_ptr<FdxServer> server;
  if (config.self_host) {
    ServerOptions options;
    options.io_threads = config.io_threads;
    options.workers = config.workers;
    options.queue_capacity = config.queue_capacity;
    options.cache_capacity = config.cache_capacity;
    options.max_sessions = config.clients + 8;
    server = std::make_unique<FdxServer>(options);
    const Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "fdxload: self-host: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    port = server->port();
  } else if (port == 0 && !config.port_file.empty()) {
    std::ifstream in(config.port_file);
    int value = 0;
    if (in >> value && value > 0 && value < 65536) {
      port = static_cast<uint16_t>(value);
    }
  }
  if (port == 0) {
    std::fprintf(stderr,
                 "fdxload: need --port=N, --port-file=PATH, or --self-host\n");
    return Usage();
  }

  std::string label = config.label;
  if (label.empty()) label = config.self_host ? "self-host" : "external";
  const size_t io_threads = server ? server->io_threads() : 0;

  LoadEngine engine(config);
  const bool ok = engine.Run(port);
  if (server) server->Shutdown();

  // Aborted runs still record their partial results (marked as such) —
  // a crashed daemon should leave evidence, not an empty file.
  const std::string run_json =
      RenderRun(config, label, io_threads, &engine, !ok);
  if (!WriteBenchFile(config.out, label, run_json)) return 1;

  const double throughput =
      engine.elapsed_seconds() > 0.0
          ? static_cast<double>(engine.total_responses()) /
                engine.elapsed_seconds()
          : 0.0;
  std::printf("fdxload[%s]: %llu responses from %zu clients in %.2fs "
              "(%.0f req/s)%s -> %s\n",
              label.c_str(),
              static_cast<unsigned long long>(engine.total_responses()),
              config.clients, engine.elapsed_seconds(), throughput,
              ok ? "" : " [ABORTED]", config.out.c_str());
  if (config.chaos) {
    std::printf("fdxload[%s]: chaos: %llu kills, %llu reconnects, %llu "
                "resent, %llu fingerprint mismatches, %llu torn lines\n",
                label.c_str(),
                static_cast<unsigned long long>(engine.chaos_kills()),
                static_cast<unsigned long long>(engine.chaos_reconnects()),
                static_cast<unsigned long long>(engine.chaos_resent()),
                static_cast<unsigned long long>(
                    engine.fingerprint_mismatches()),
                static_cast<unsigned long long>(engine.torn_lines()));
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace fdx::load

int main(int argc, char** argv) { return fdx::load::Main(argc, argv); }
