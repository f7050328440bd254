// fdxd — the FD-discovery daemon (loopback TCP, line-delimited JSON).
//
// Serves the ops documented in DESIGN.md §9: open / append / discover /
// status / shutdown (plus the test-only `sleep` behind --debug-ops).
// Shut it down with `fdxctl shutdown`; the daemon drains in-flight
// discovery jobs under --drain-seconds and exits.
//
// I/O architecture (DESIGN.md §12): a fixed set of epoll event-loop
// threads, one per hardware thread unless --io-threads says otherwise,
// multiplexes every connection with pipelined request framing.
//
// Flags (all --key=value; numeric values are strict: a malformed or
// out-of-range value exits 2 naming the flag):
//   --port=N            listen port; 0 (default) picks an ephemeral port
//   --port-file=PATH    write the bound port to PATH (for scripts/CI)
//   --io-threads=N      event-loop threads; 0 = one per hardware thread
//                       (default 0)
//   --workers=N         discovery worker threads            (default 2)
//   --queue-capacity=N  admitted-unfinished job cap         (default 8)
//   --max-sessions=N    open dataset sessions cap           (default 32)
//   --session-ttl=SEC   idle-session eviction, <=0 disables (default 600)
//   --session-shards=N  session-registry mutex stripes      (default 8)
//   --drain-seconds=SEC shutdown drain budget               (default 10)
//   --cache-capacity=N  result-cache entries                (default 64)
//   --cache-shards=N    result-cache mutex stripes          (default 8)
//   --max-pipeline-depth=N  per-connection pipelined frames (default 1024)
//   --lambda=, --time-budget=   baseline FdxOptions for requests that
//                               don't override them
//   --debug-ops         enable the test-only `sleep` op
//
// Robustness flags (DESIGN.md §13):
//   --state-dir=PATH    durable mode: every session's rows in a chunk
//                       store under PATH (one chunk per append) plus the
//                       result cache; on startup the daemon replays the
//                       stores and serves bit-identical results
//   --snapshot-interval=SEC  cache spill period in durable mode (default 5)
//   --default-deadline=SEC   server-side deadline applied to requests
//                            that don't send "deadline_seconds" (0 = none)
//   --shed-watermark=F  shed new discover jobs once queue depth crosses
//                       F * queue capacity (0 disables shedding)
//   --shed-rss-mb=N     shed new discover jobs above N MiB RSS (0 = off)
//   --shed-retry-after=SEC   retry_after hint on shed responses (default 0.2)
//   --store-compression=none|varint  chunk payload codec of durable
//                       sessions' stores; fingerprints cover the uncompressed
//                       bytes, so results and cache keys are unchanged
//
// SIGTERM/SIGINT trigger the same graceful drain as a `shutdown`
// request.
//
// Exit codes: 0 clean client-requested shutdown (jobs drained), 1
// startup failure or unclean drain, 2 usage, 3 clean signal-initiated
// shutdown (so supervisors can tell a drained SIGTERM from an operator
// `fdxctl shutdown`).

#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "service/server.h"
#include "util/flags.h"

namespace fdx::daemon {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: fdxd [--port=N] [--port-file=PATH]\n"
               "            [--io-threads=N] [--workers=N]\n"
               "            [--queue-capacity=N]\n"
               "            [--max-sessions=N] [--session-ttl=SEC]\n"
               "            [--session-shards=N] [--drain-seconds=SEC]\n"
               "            [--cache-capacity=N] [--cache-shards=N]\n"
               "            [--max-pipeline-depth=N] [--lambda=L]\n"
               "            [--time-budget=SEC] [--debug-ops]\n"
               "            [--state-dir=PATH] [--snapshot-interval=SEC]\n"
               "            [--default-deadline=SEC] [--shed-watermark=F]\n"
               "            [--shed-rss-mb=N] [--shed-retry-after=SEC]\n"
               "            [--store-compression=none|varint]\n");
  return 2;
}

/// Raises the fd soft limit to the hard limit. One epoll thread happily
/// owns thousands of sockets; the usual 1024 soft default would cap the
/// daemon long before the event loop breaks a sweat. Best-effort — on
/// failure the accept path's transient-EMFILE handling degrades
/// gracefully instead of dying.
void RaiseFdLimit() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  if (limit.rlim_cur >= limit.rlim_max) return;
  limit.rlim_cur = limit.rlim_max;
  ::setrlimit(RLIMIT_NOFILE, &limit);
}

int Main(int argc, char** argv) {
  const Flags flags("fdxd", argc, argv, 1);
  const Status known = flags.CheckKnown(
      {"port=", "port-file=", "io-threads=", "workers=", "queue-capacity=",
       "max-sessions=", "session-ttl=", "session-shards=", "drain-seconds=",
       "cache-capacity=", "cache-shards=", "max-pipeline-depth=", "lambda=",
       "time-budget=", "debug-ops", "state-dir=", "snapshot-interval=",
       "default-deadline=", "shed-watermark=", "shed-rss-mb=",
       "shed-retry-after=", "store-compression="});
  if (!known.ok()) {
    std::fprintf(stderr, "fdxd: %s\n", known.message().c_str());
    return Usage();
  }
  ServerOptions options;
  options.port = flags.GetPort("port", options.port);
  options.io_threads =
      flags.GetCount("io-threads", options.io_threads, 0, kMaxThreadsFlag);
  options.workers =
      flags.GetCount("workers", options.workers, 1, kMaxThreadsFlag);
  options.queue_capacity =
      flags.GetCount("queue-capacity", options.queue_capacity, 1);
  options.max_sessions = flags.GetCount("max-sessions", options.max_sessions);
  options.session_ttl_seconds =
      flags.GetNumber("session-ttl", options.session_ttl_seconds);
  options.session_shards = flags.GetCount(
      "session-shards", options.session_shards, 1, kMaxThreadsFlag);
  options.drain_seconds =
      flags.GetNumber("drain-seconds", options.drain_seconds);
  options.cache_capacity =
      flags.GetCount("cache-capacity", options.cache_capacity);
  options.cache_shards =
      flags.GetCount("cache-shards", options.cache_shards, 1, kMaxThreadsFlag);
  options.max_pipeline_depth =
      flags.GetCount("max-pipeline-depth", options.max_pipeline_depth, 1);
  options.fdx.lambda = flags.GetNumber("lambda", options.fdx.lambda);
  options.fdx.time_budget_seconds =
      flags.GetNumber("time-budget", options.fdx.time_budget_seconds);
  options.enable_debug_ops = flags.Has("debug-ops");
  options.state_dir = flags.Get("state-dir");
  options.snapshot_interval_seconds =
      flags.GetNumber("snapshot-interval", options.snapshot_interval_seconds);
  options.default_deadline_seconds =
      flags.GetNumber("default-deadline", options.default_deadline_seconds);
  options.shed_queue_watermark =
      flags.GetNumber("shed-watermark", options.shed_queue_watermark);
  // MiB past this overflow the byte count the RSS check compares with.
  options.shed_max_rss_mb = flags.GetCount(
      "shed-rss-mb", options.shed_max_rss_mb, 0, UINT64_MAX >> 20);
  options.shed_retry_after_seconds =
      flags.GetNumber("shed-retry-after", options.shed_retry_after_seconds);
  options.store_compression = flags.Get("store-compression");
  const std::string port_file = flags.Get("port-file");

  RaiseFdLimit();

  // SIGTERM/SIGINT must drain, not kill. The signals are blocked in
  // every thread (spawned threads inherit this mask) and consumed by a
  // dedicated sigwait thread — signal-safe by construction, since the
  // handler work (server.Shutdown()) runs in ordinary thread context.
  sigset_t signal_mask;
  sigemptyset(&signal_mask);
  sigaddset(&signal_mask, SIGTERM);
  sigaddset(&signal_mask, SIGINT);
  sigaddset(&signal_mask, SIGUSR1);  // wake-up for clean sigwait exit
  pthread_sigmask(SIG_BLOCK, &signal_mask, nullptr);

  FdxServer server(options);
  const Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "fdxd: %s\n", started.ToString().c_str());
    return 1;
  }

  std::atomic<bool> signal_shutdown{false};
  std::atomic<bool> exiting{false};
  std::thread signal_thread([&] {
    for (;;) {
      int sig = 0;
      if (sigwait(&signal_mask, &sig) != 0) continue;
      if (exiting.load()) return;
      if (sig == SIGTERM || sig == SIGINT) {
        std::fprintf(stderr, "fdxd: caught %s, draining\n",
                     sig == SIGTERM ? "SIGTERM" : "SIGINT");
        signal_shutdown.store(true);
        server.Shutdown();
        return;
      }
    }
  });
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << server.port() << "\n";
    if (!out) {
      std::fprintf(stderr, "fdxd: cannot write port file %s\n",
                   port_file.c_str());
      return 1;
    }
  }
  std::printf("fdxd listening on 127.0.0.1:%u (%zu io threads)\n",
              static_cast<unsigned>(server.port()), server.io_threads());
  std::fflush(stdout);

  server.Wait();  // returns once a `shutdown` request or signal drained

  exiting.store(true);
  ::kill(::getpid(), SIGUSR1);  // wake sigwait if no signal ever arrived
  signal_thread.join();

  if (!server.drained_cleanly()) {
    std::fprintf(stderr, "fdxd: drain budget expired with jobs in flight\n");
    return 1;
  }
  return signal_shutdown.load() ? 3 : 0;
}

}  // namespace
}  // namespace fdx::daemon

int main(int argc, char** argv) { return fdx::daemon::Main(argc, argv); }
