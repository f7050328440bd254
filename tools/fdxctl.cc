// fdxctl — command-line client of the fdxd daemon.
//
// Subcommands (every one needs --port=N or --port-file=PATH):
//   open     --schema=a,b,c [--options='{...}'] [--storage=chunked]
//   append   --session=s-1 (--csv-file=PATH | --rows='[[...]]')
//   discover (--session=s-1 | --csv-file=PATH | --csv-path=PATH
//             | --table='{...}') [--options='{...}']
//   status   [--text]             (--text: human-readable report)
//   shutdown
//   sleep    --seconds=S          (needs a --debug-ops daemon; test aid)
//   raw      --json='{"op":...}'  (send one verbatim request line)
//
// --csv-file reads a local CSV and ships its *contents* inline;
// --csv-path sends the path for the daemon to read server-side.
// --options / --rows / --table values are embedded verbatim as JSON.
// --timeout=SEC (any op) bounds both the connect and the wait for the
// response line; an expired deadline exits 6 without a response.
// --deadline=SEC (any op) asks the *server* to shed the request if it
// cannot start within SEC (adds "deadline_seconds" to the request).
// Numeric flags are strict: a malformed or out-of-range value (say
// --timeout=abc or --port=70000) exits 2 naming the flag.
//
// --retries=N (at most 1000) re-attempts a failed request up to N extra
// times with exponential backoff plus jitter (--retry-base-ms=MS,
// default 100, doubling per attempt; a server-sent retry_after hint
// extends the wait). Retryable outcomes:
//   exit 3 (connect failure)   — always; the daemon may be restarting
//   exit 5 (busy/Unavailable)  — always; shedding asks for exactly this
//   exit 4/6 (timeouts)        — only for idempotent ops (discover,
//                                status, sleep); a timed-out open or
//                                append may have been applied, and
//                                replaying it would duplicate state
// Intermediate failures go to stderr; only the final response is
// printed.
//
// The raw response line is printed to stdout. Exit codes: 0 ok,
// 1 server-reported error, 2 usage, 3 connect failure, 4 server-
// reported timeout, 5 busy (Unavailable — back off and retry),
// 6 client-side deadline (--timeout) expired.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>

#include "util/json_parser.h"
#include "service/protocol.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/socket.h"

namespace fdx::ctl {
namespace {

/// Largest --retries: enough to outlast a daemon restart, small enough
/// that the attempt counter stays far from int overflow.
constexpr uint64_t kMaxRetries = 1000;

int Usage() {
  std::fprintf(
      stderr,
      "usage: fdxctl <op> --port=N|--port-file=PATH [op flags]\n"
      "  open     --schema=a,b,c [--options='{...}'] [--storage=chunked]\n"
      "  append   --session=ID (--csv-file=PATH | --rows='[[...]]')\n"
      "  discover (--session=ID | --csv-file=PATH | --csv-path=PATH |\n"
      "            --table='{...}') [--options='{...}']\n"
      "  status [--text] | shutdown | sleep --seconds=S | raw --json='{...}'\n"
      "  any op: --timeout=SEC (connect + response deadline; exit 6)\n"
      "          --deadline=SEC (server-side deadline for the request)\n"
      "          --retries=N --retry-base-ms=MS (backoff on 3/5, and on\n"
      "          4/6 for idempotent ops)\n");
  return 2;
}

std::string Quote(const std::string& text) {
  return "\"" + JsonWriter::Escape(text) + "\"";
}

/// `value` as a JSON number, to 6 significant digits.
std::string Number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

/// Resolves the daemon port from --port or --port-file; 0 on failure.
uint16_t ResolvePort(const Flags& args) {
  const uint16_t port = args.GetPort("port", 0);
  if (port != 0) return port;
  const std::string port_file = args.Get("port-file");
  if (!port_file.empty()) {
    std::ifstream in(port_file);
    int value = 0;
    if (in >> value && value > 0 && value < 65536) {
      return static_cast<uint16_t>(value);
    }
  }
  return 0;
}

Result<std::string> SlurpFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  std::ostringstream contents;
  contents << in.rdbuf();
  if (in.bad()) return Status::IOError("read failed on " + path);
  return contents.str();
}

/// Builds the request line for `op`, or an error for bad flag combos.
Result<std::string> BuildRequest(const std::string& op, const Flags& args) {
  if (op == "raw") {
    const std::string json = args.Get("json");
    if (json.empty()) return Status::InvalidArgument("raw needs --json=");
    return json;
  }

  std::string request = "{\"op\":" + Quote(op);
  const std::string options = args.Get("options");

  if (op == "open") {
    const std::string schema = args.Get("schema");
    if (schema.empty()) return Status::InvalidArgument("open needs --schema=");
    request += ",\"schema\":[";
    std::string name;
    std::istringstream names(schema);
    bool first = true;
    while (std::getline(names, name, ',')) {
      if (!first) request += ",";
      request += Quote(name);
      first = false;
    }
    request += "]";
    const std::string storage = args.Get("storage");
    if (!storage.empty()) request += ",\"storage\":" + Quote(storage);
  } else if (op == "append") {
    const std::string session = args.Get("session");
    if (session.empty()) {
      return Status::InvalidArgument("append needs --session=");
    }
    request += ",\"session\":" + Quote(session);
    const std::string csv_file = args.Get("csv-file");
    const std::string rows = args.Get("rows");
    if (csv_file.empty() == rows.empty()) {
      return Status::InvalidArgument(
          "append needs exactly one of --csv-file= or --rows=");
    }
    if (!csv_file.empty()) {
      Result<std::string> contents = SlurpFile(csv_file);
      if (!contents.ok()) return contents.status();
      request += ",\"csv\":" + Quote(contents.value());
    } else {
      request += ",\"rows\":" + rows;
    }
  } else if (op == "discover") {
    const std::string session = args.Get("session");
    const std::string csv_file = args.Get("csv-file");
    const std::string csv_path = args.Get("csv-path");
    const std::string table = args.Get("table");
    const int sources = !session.empty() + !csv_file.empty() +
                        !csv_path.empty() + !table.empty();
    if (sources != 1) {
      return Status::InvalidArgument(
          "discover needs exactly one of --session=, --csv-file=, "
          "--csv-path=, --table=");
    }
    if (!session.empty()) {
      request += ",\"session\":" + Quote(session);
    } else if (!csv_file.empty()) {
      Result<std::string> contents = SlurpFile(csv_file);
      if (!contents.ok()) return contents.status();
      request += ",\"csv\":" + Quote(contents.value());
    } else if (!csv_path.empty()) {
      request += ",\"csv_path\":" + Quote(csv_path);
    } else {
      request += ",\"table\":" + table;
    }
  } else if (op == "sleep") {
    const double seconds = args.GetNumber("seconds", 0.05);
    request += ",\"seconds\":" + Number(seconds);
  } else if (op != "status" && op != "shutdown") {
    return Status::InvalidArgument("unknown op \"" + op + "\"");
  }

  if (!options.empty()) request += ",\"options\":" + options;
  if (args.Find("deadline")) {
    const double seconds = args.GetNumber("deadline", 0.0);
    if (seconds <= 0.0) {
      return Status::InvalidArgument("--deadline must be a positive number");
    }
    request += ",\"deadline_seconds\":" + Number(seconds);
  }
  return request + "}";
}

/// Maps the response line to the exit code contract.
int ExitCodeFor(const std::string& response) {
  Result<JsonValue> parsed = JsonValue::Parse(response);
  if (!parsed.ok()) return 1;  // daemon spoke, but not JSON — treat as error
  if (parsed->BoolOr("ok", false)) return 0;
  const JsonValue* error = parsed->Find("error");
  const std::string code =
      error == nullptr ? "" : error->StringOr("code", "");
  if (code == "Unavailable") return 5;
  if (code == "Timeout") return 4;
  return 1;
}

/// One connect → send → read round trip. `response` is empty when the
/// failure happened before a response line arrived.
int RunAttempt(uint16_t port, double timeout, const std::string& request,
               std::string* response) {
  response->clear();
  Result<Socket> sock = Socket::ConnectLoopback(port, timeout);
  if (!sock.ok()) {
    std::fprintf(stderr, "fdxctl: %s\n", sock.status().ToString().c_str());
    return sock.status().code() == StatusCode::kTimeout ? 6 : 3;
  }
  if (timeout > 0.0) {
    // Read deadline: a wedged daemon makes ReadLine return kTimeout
    // instead of blocking forever.
    Status armed = sock->SetReadTimeout(timeout);
    if (!armed.ok()) {
      std::fprintf(stderr, "fdxctl: %s\n", armed.ToString().c_str());
      return 3;
    }
  }
  Status sent = sock->SendAll(request + "\n");
  if (!sent.ok()) {
    std::fprintf(stderr, "fdxctl: %s\n", sent.ToString().c_str());
    return 3;
  }
  Status read = sock->ReadLine(response);
  if (!read.ok()) {
    response->clear();
    std::fprintf(stderr, "fdxctl: %s\n", read.ToString().c_str());
    return read.code() == StatusCode::kTimeout ? 6 : 3;
  }
  return ExitCodeFor(*response);
}

/// Server-suggested wait before the next attempt, 0 when absent.
double RetryAfterSeconds(const std::string& response) {
  if (response.empty()) return 0.0;
  Result<JsonValue> parsed = JsonValue::Parse(response);
  if (!parsed.ok()) return 0.0;
  return parsed->NumberOr("retry_after", 0.0);
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string op = argv[1];
  const Flags args("fdxctl", argc, argv, 2);

  Result<std::string> request = BuildRequest(op, args);
  if (!request.ok()) {
    std::fprintf(stderr, "fdxctl: %s\n", request.status().ToString().c_str());
    return 2;
  }

  const uint16_t port = ResolvePort(args);
  if (port == 0) {
    std::fprintf(stderr, "fdxctl: need --port=N or --port-file=PATH\n");
    return 2;
  }
  const double timeout = args.GetNumber("timeout", 0.0);
  if (timeout < 0.0) {
    std::fprintf(stderr, "fdxctl: --timeout must be non-negative\n");
    return 2;
  }
  const int retries =
      static_cast<int>(args.GetCount("retries", 0, 0, kMaxRetries));
  const double base_ms = args.GetNumber("retry-base-ms", 100.0);
  if (base_ms <= 0.0) {
    std::fprintf(stderr, "fdxctl: --retry-base-ms must be positive\n");
    return 2;
  }
  // Replaying a timed-out open/append could duplicate server state; see
  // the retry policy in the header comment.
  const bool idempotent = op == "discover" || op == "status" || op == "sleep";
  std::mt19937 rng(std::random_device{}());

  std::string response;
  int code = 0;
  for (int attempt = 0;; ++attempt) {
    code = RunAttempt(port, timeout, request.value(), &response);
    const bool retryable =
        code == 3 || code == 5 || ((code == 4 || code == 6) && idempotent);
    if (code == 0 || attempt >= retries || !retryable) break;
    const double backoff_ms =
        base_ms * static_cast<double>(1 << std::min(attempt, 10)) +
        std::uniform_real_distribution<double>(0.0, base_ms)(rng);
    const double wait_ms =
        std::max(backoff_ms, RetryAfterSeconds(response) * 1000.0);
    std::fprintf(stderr,
                 "fdxctl: attempt %d/%d failed (exit %d), retrying in %.0f ms\n",
                 attempt + 1, retries + 1, code, wait_ms);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(wait_ms));
  }

  if (response.empty()) return code;  // never got a response line
  if (op == "status" && args.Has("text")) {
    Result<JsonValue> parsed = JsonValue::Parse(response);
    if (parsed.ok() && parsed->BoolOr("ok", false)) {
      std::fputs(RenderStatusTextReport(parsed.value()).c_str(), stdout);
      return 0;
    }
    // Fall through to the raw line for errors (and their exit codes).
  }
  std::printf("%s\n", response.c_str());
  return code;
}

}  // namespace
}  // namespace fdx::ctl

int main(int argc, char** argv) { return fdx::ctl::Main(argc, argv); }
