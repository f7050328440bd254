// pb_trace — sends a benchmark workload's inputs through each FDX layer's
// public functions and attributes the time to the layers.
//
// Spans are recorded here, around the calls into the library, and kept in
// memory; at exit they are written as Chrome trace-event JSON (open it in
// Perfetto or chrome://tracing). A span's self time is its duration minus
// the time its child spans cover. The last stdout line is one JSON object
// of the per-layer metrics the workload reaches.
//
//   pb_trace file --csv=PATH [--cap-mb=N] --store-dir=DIR --trace-out=FILE
//                 --fds-out=FILE
//     The fdxtool discover pipeline: ReadCsv + PairTransformMoments in
//     memory, or with --cap-mb ReadCsvChunked into a ChunkedTable and
//     StreamTransformMoments under the same RSS ceiling and column cache
//     fdxtool derives from --max-memory-mb; then DiscoverFromCovariance
//     and the FD JSON that `fdxtool discover --format=json --stable`
//     prints (written to --fds-out for a byte comparison).
//
//   pb_trace sessions --data=DIR --streams=N --cols=N --batch-rows=N
//                     --batches=N --discover-from=B --trace-out=FILE
//     The fdxd append path per session batch: ReadCsvFromString,
//     UpdateTableFingerprint, IncrementalFdx::Append, EncodeBatchRows +
//     EncodeSessionSnapshot, and IncrementalFdx::CurrentFds after every
//     batch from B on (the batches the workload discovers after). The
//     batch loop runs with the recorder off (a warm-up pass, then a timed
//     one) and then on; trace.overhead compares the last two.

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/fdx.h"
#include "core/incremental.h"
#include "core/transform.h"
#include "data/csv.h"
#include "service/protocol.h"
#include "service/snapshot.h"
#include "store/chunked_table.h"
#include "store/stream_transform.h"
#include "util/fingerprint.h"
#include "util/json_parser.h"
#include "util/json_writer.h"

namespace {

using Clock = std::chrono::steady_clock;

/// In-memory span recorder for one thread. Spans nest by scope.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent;
    double start_us;
    double end_us;
    double child_us = 0.0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const std::string& name)
        : tracer_(tracer), id_(tracer->Begin(name)) {}
    ~Scope() { tracer_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_;
  };

  bool enabled = true;

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_)
        .count();
  }

  int Begin(const std::string& name) {
    if (!enabled) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, parent, NowUs(), 0.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void End(int id) {
    if (id < 0) return;
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_us = NowUs();
    stack_.pop_back();
    // Children of one thread never overlap, so their union is their sum.
    if (s.parent >= 0) {
      spans_[static_cast<size_t>(s.parent)].child_us += s.end_us - s.start_us;
    }
  }

  /// Total duration (seconds) of spans called `name`.
  double Total(const std::string& name) const {
    double us = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) us += s.end_us - s.start_us;
    }
    return us * 1e-6;
  }

  /// Self time (seconds) of spans called `name`.
  double Self(const std::string& name) const {
    double us = 0.0;
    for (const Span& s : spans_) {
      if (s.name == name) us += s.end_us - s.start_us - s.child_us;
    }
    return us * 1e-6;
  }

  /// Durations (seconds) of every span called `name`, in start order.
  std::vector<double> Each(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back((s.end_us - s.start_us) * 1e-6);
    }
    return out;
  }

  /// Share of the root span's duration covered by its direct children.
  double Coverage(const std::string& root) const {
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name != root) continue;
      const Span& r = spans_[i];
      return r.child_us / (r.end_us - r.start_us);
    }
    return 0.0;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  bool Write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"self_us\":%.3f}}",
                    i ? "," : "", s.name.c_str(), s.start_us,
                    s.end_us - s.start_us, s.end_us - s.start_us - s.child_us);
      out << buf;
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
  }

  /// Per-name totals and self times, for the report.
  void PrintTree(FILE* f) const {
    std::map<std::string, std::pair<double, double>> by_name;
    for (const Span& s : spans_) {
      auto& [total, self] = by_name[s.name];
      total += (s.end_us - s.start_us) * 1e-6;
      self += (s.end_us - s.start_us - s.child_us) * 1e-6;
    }
    for (const auto& [name, ts] : by_name) {
      std::fprintf(f, "  span %-28s total %10.6f s  self %10.6f s\n",
                   name.c_str(), ts.first, ts.second);
    }
  }

 private:
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

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

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

int Fail(const fdx::Status& status) {
  std::fprintf(stderr, "pb_trace: %s\n", status.ToString().c_str());
  return 1;
}

/// The measured metrics by name; run.py reports 0 for every per-layer
/// metric a workload leaves out.
using Metrics = std::map<std::string, double>;

void AddSolver(const fdx::RunDiagnostics& d, Metrics* m) {
  size_t largest = 0;
  for (size_t s : d.solver_component_sizes) largest = std::max(largest, s);
  (*m)["linalg.glasso_components"] = static_cast<double>(d.solver_components);
  (*m)["linalg.glasso_max_component"] = static_cast<double>(largest);
  (*m)["linalg.glasso_sweeps"] = static_cast<double>(d.solver_sweeps);
  (*m)["linalg.newton_iterations"] =
      static_cast<double>(d.solver_newton_iterations);
  (*m)["linalg.active_hit_rate"] = d.solver_active_hit_rate;
}

void Print(const Metrics& m) {
  const char* sep = "{";
  for (const auto& [name, value] : m) {
    std::printf("%s\"%s\":%.9g", sep, name.c_str(), value);
    sep = ",";
  }
  std::printf("}\n");
}

/// The bytes `fdxtool discover --format=json --stable` prints.
std::string StableFdsJson(const fdx::Schema& schema, size_t rows,
                          const fdx::FdxResult& result) {
  fdx::JsonWriter json;
  json.BeginObject();
  json.Key("rows");
  json.Integer(static_cast<int64_t>(rows));
  json.Key("columns");
  json.Integer(static_cast<int64_t>(schema.size()));
  json.Key("fds");
  json.BeginArray();
  for (const auto& fd : result.fds) {
    json.BeginObject();
    json.Key("lhs");
    json.BeginArray();
    for (size_t a : fd.lhs) json.String(schema.name(a));
    json.EndArray();
    json.Key("rhs");
    json.String(schema.name(fd.rhs));
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.TakeString() + "\n";
}

int File(int argc, char** argv) {
  const std::string csv_path = Flag(argc, argv, "csv");
  const long cap_mb = FlagInt(argc, argv, "cap-mb", 0);
  const std::string store_dir = Flag(argc, argv, "store-dir");
  const std::string trace_out = Flag(argc, argv, "trace-out");
  const std::string fds_out = Flag(argc, argv, "fds-out");
  if (csv_path.empty() || trace_out.empty() || fds_out.empty() ||
      (cap_mb > 0 && store_dir.empty())) {
    std::fprintf(stderr, "pb_trace file: missing flags\n");
    return 2;
  }
  struct stat st {};
  if (::stat(csv_path.c_str(), &st) != 0) {
    std::fprintf(stderr, "pb_trace: cannot stat %s\n", csv_path.c_str());
    return 1;
  }
  const double csv_bytes = static_cast<double>(st.st_size);

  Tracer tracer;
  Metrics m;
  const fdx::FdxOptions options;  // fdxtool's defaults; threads from env
  fdx::Schema schema;
  size_t rows = 0;
  fdx::Result<fdx::FdxResult> result = fdx::Status::Internal("not run");
  std::string fds_json;
  {
    Tracer::Scope root(&tracer, "csv_to_fds");
    fdx::Matrix cov;
    if (cap_mb > 0) {
      const uint64_t rss_limit = static_cast<uint64_t>(cap_mb) << 20;
      std::error_code ec;
      std::filesystem::remove_all(store_dir, ec);
      fdx::ChunkedTable store;
      bool created = false;
      fdx::Status read;
      {
        Tracer::Scope span(&tracer, "data.read_csv_chunked");
        read = fdx::ReadCsvChunked(
            csv_path, fdx::CsvOptions{}, 65536,
            [&](fdx::Table&& chunk) -> fdx::Status {
              Tracer::Scope append(&tracer, "store.append");
              if (!created) {
                FDX_ASSIGN_OR_RETURN(store, fdx::ChunkedTable::Create(
                                                chunk.schema(), store_dir));
                created = true;
              }
              if (chunk.num_rows() == 0) return fdx::Status::OK();
              return store.AppendBatch(chunk);
            });
      }
      if (!read.ok()) return Fail(read);
      fdx::StreamTransformOptions stream;
      stream.transform = options.transform;
      stream.column_cache_bytes = rss_limit / 4;
      stream.rss_limit_bytes = rss_limit;
      fdx::Result<fdx::TransformedMoments> moments =
          fdx::Status::Internal("not run");
      {
        Tracer::Scope span(&tracer, "store.transform");
        moments = fdx::StreamTransformMoments(store, stream);
      }
      if (!moments.ok()) return Fail(moments.status());
      cov = std::move(moments->cov);
      m["core.transform_samples"] = static_cast<double>(moments->num_samples);
      m["store.chunks"] = static_cast<double>(store.num_chunks());
      m["store.mmap_fallbacks"] = static_cast<double>(store.mmap_fallbacks());
      m["store.bytes_per_input_byte"] =
          static_cast<double>(DirBytes(store_dir)) / csv_bytes;
      schema = store.schema();
      rows = store.num_rows();
    } else {
      fdx::Result<fdx::Table> table = fdx::Status::Internal("not run");
      {
        Tracer::Scope span(&tracer, "data.read_csv");
        table = fdx::ReadCsv(csv_path);
      }
      if (!table.ok()) return Fail(table.status());
      fdx::Result<fdx::TransformedMoments> moments =
          fdx::Status::Internal("not run");
      {
        Tracer::Scope span(&tracer, "core.transform");
        moments = fdx::PairTransformMoments(*table, options.transform);
      }
      if (!moments.ok()) return Fail(moments.status());
      cov = std::move(moments->cov);
      m["core.transform_samples"] = static_cast<double>(moments->num_samples);
      schema = table->schema();
      rows = table->num_rows();
    }
    {
      Tracer::Scope span(&tracer, "core.learn");
      result = fdx::FdxDiscoverer(options).DiscoverFromCovariance(cov);
    }
    if (!result.ok()) return Fail(result.status());
    Tracer::Scope span(&tracer, "output.render");
    fds_json = StableFdsJson(schema, rows, *result);
  }
  if (cap_mb > 0) {
    std::error_code ec;
    std::filesystem::remove_all(store_dir, ec);
  }

  // A separate dictionary encode of the whole table, outside the
  // coverage root: the in-memory transform does it inside
  // core.transform, the store during store.append.
  {
    fdx::Result<fdx::Table> table = fdx::ReadCsv(csv_path);
    if (!table.ok()) return Fail(table.status());
    Tracer::Scope span(&tracer, "data.encode");
    const fdx::EncodedTable encoded = fdx::EncodedTable::Encode(*table);
    if (encoded.num_rows() != rows) {
      std::fprintf(stderr, "pb_trace: encode row count mismatch\n");
      return 1;
    }
  }

  const double parse_s = cap_mb > 0 ? tracer.Self("data.read_csv_chunked")
                                    : tracer.Total("data.read_csv");
  m["data.parse_s"] = parse_s;
  m["data.parse_mb_per_s"] = csv_bytes / 1e6 / parse_s;
  m["data.encode_s"] = tracer.Total("data.encode");
  m["store.append_s"] = tracer.Total("store.append");
  m["store.transform_s"] = tracer.Total("store.transform");
  m["core.transform_s"] = tracer.Total("core.transform");
  m["core.learn_s"] = tracer.Total("core.learn");
  AddSolver(result->diagnostics, &m);
  m["trace.coverage"] = tracer.Coverage("csv_to_fds");
  m["trace.wall_s"] = tracer.Total("csv_to_fds");

  std::ofstream(fds_out, std::ios::binary) << fds_json;
  if (!tracer.Write(trace_out)) {
    std::fprintf(stderr, "pb_trace: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  tracer.PrintTree(stdout);
  Print(m);
  return 0;
}

struct SessionReplay {
  fdx::Status status;
  fdx::RunDiagnostics last_diagnostics;
  std::vector<std::string> snapshots;  ///< final snapshot per session
  std::vector<std::string> answers;    ///< final discover per session
  size_t samples = 0;
};

/// Replays every session's batches through the layers fdxd's append and
/// discover paths call, in the server's order.
SessionReplay ReplaySessions(
    Tracer* tracer, const std::vector<std::vector<std::string>>& batches,
    const fdx::Schema& schema, long discover_from) {
  SessionReplay out;
  const fdx::FdxOptions options;
  const std::string options_key = fdx::CanonicalOptionsKey(options);
  fdx::CsvOptions csv;
  csv.has_header = false;
  Tracer::Scope root(tracer, "replay");
  for (size_t s = 0; s < batches.size(); ++s) {
    fdx::IncrementalFdx fdx(schema, options);
    fdx::Fingerprint content;
    content.UpdateString("session");  // as DatasetSession seeds it
    std::vector<std::string> batches_json;
    std::string snapshot;
    std::string answer;
    for (size_t b = 0; b < batches[s].size(); ++b) {
      fdx::Result<fdx::Table> batch = fdx::Status::Internal("not run");
      {
        Tracer::Scope span(tracer, "data.parse");
        batch = fdx::ReadCsvFromString(batches[s][b], csv);
        if (batch.ok()) batch->ReplaceSchema(schema);
      }
      if (!batch.ok()) {
        out.status = batch.status();
        return out;
      }
      {
        Tracer::Scope span(tracer, "util.fingerprint");
        content.UpdateString("batch");
        fdx::UpdateTableFingerprint(&content, *batch);
      }
      {
        Tracer::Scope span(tracer, "core.incremental_append");
        out.status = fdx.Append(*batch);
      }
      if (!out.status.ok()) return out;
      {
        Tracer::Scope span(tracer, "service.snapshot_encode");
        batches_json.push_back(fdx::EncodeBatchRows(*batch));
        snapshot = fdx::EncodeSessionSnapshot(
            "s-" + std::to_string(s + 1), schema, options, options_key,
            content.Hex(), batches_json);
      }
      if (static_cast<long>(b) + 1 >= discover_from) {
        Tracer::Scope span(tracer, "core.current_fds");
        fdx::Result<fdx::FdxResult> fds = fdx.CurrentFds();
        if (!fds.ok()) {
          out.status = fds.status();
          return out;
        }
        out.last_diagnostics = fds->diagnostics;
        answer = fdx::RenderDiscoverResponse(schema, fdx.total_rows(), *fds);
      }
    }
    out.samples += fdx.total_samples();
    out.snapshots.push_back(std::move(snapshot));
    out.answers.push_back(std::move(answer));
  }
  return out;
}

int Sessions(int argc, char** argv) {
  const std::string data = Flag(argc, argv, "data");
  const long streams = FlagInt(argc, argv, "streams", 0);
  const long cols = FlagInt(argc, argv, "cols", 0);
  const long batch_rows = FlagInt(argc, argv, "batch-rows", 0);
  const long num_batches = FlagInt(argc, argv, "batches", 0);
  const long discover_from = FlagInt(argc, argv, "discover-from", 0);
  const std::string trace_out = Flag(argc, argv, "trace-out");
  const std::string fds_out = Flag(argc, argv, "fds-out");
  if (data.empty() || streams <= 0 || cols <= 0 || batch_rows <= 0 ||
      num_batches <= 0 || discover_from <= 0 || trace_out.empty() ||
      fds_out.empty()) {
    std::fprintf(stderr, "pb_trace sessions: missing flags\n");
    return 2;
  }
  std::vector<std::string> names;
  for (long c = 0; c < cols; ++c) names.push_back("A" + std::to_string(c));
  const fdx::Schema schema(names);
  std::vector<std::vector<std::string>> batches(static_cast<size_t>(streams));
  double batch_bytes = 0.0;
  for (long s = 0; s < streams; ++s) {
    std::ifstream in(data + "/s" + std::to_string(s) + ".csv");
    std::string line;
    std::string batch;
    long in_batch = 0;
    while (std::getline(in, line) &&
           static_cast<long>(batches[s].size()) < num_batches) {
      batch += line;
      batch.push_back('\n');
      if (++in_batch == batch_rows) {
        batch_bytes += static_cast<double>(batch.size());
        batches[s].push_back(std::move(batch));
        batch.clear();
        in_batch = 0;
      }
    }
    if (static_cast<long>(batches[s].size()) != num_batches) {
      std::fprintf(stderr, "pb_trace: session data %ld too short\n", s);
      return 1;
    }
  }

  // The first pass warms the allocator and page cache so that the
  // untraced and traced passes after it start alike.
  Tracer untraced;
  untraced.enabled = false;
  SessionReplay plain = ReplaySessions(&untraced, batches, schema,
                                       discover_from);
  if (!plain.status.ok()) return Fail(plain.status);
  const auto start = Clock::now();
  plain = ReplaySessions(&untraced, batches, schema, discover_from);
  const double untraced_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (!plain.status.ok()) return Fail(plain.status);

  Tracer tracer;
  SessionReplay replay = ReplaySessions(&tracer, batches, schema,
                                        discover_from);
  if (!replay.status.ok()) return Fail(replay.status);
  if (replay.snapshots != plain.snapshots) {
    std::fprintf(stderr, "pb_trace: traced replay changed the snapshots\n");
    return 1;
  }
  {
    Tracer::Scope span(&tracer, "service.snapshot_decode");
    for (const std::string& text : replay.snapshots) {
      fdx::Result<fdx::SessionSnapshot> decoded =
          fdx::DecodeSessionSnapshot(text);
      if (!decoded.ok()) return Fail(decoded.status());
    }
  }
  // The read request line, parsed the way the event loop parses it.
  const std::string request = "{\"op\":\"discover\",\"session\":\"s-1\"}";
  std::vector<double> parse_us;
  for (int block = 0; block < 5; ++block) {
    constexpr int kParses = 20000;
    const auto t = Clock::now();
    for (int i = 0; i < kParses; ++i) {
      fdx::Result<fdx::JsonValue> parsed = fdx::JsonValue::Parse(request);
      if (!parsed.ok()) return Fail(parsed.status());
    }
    parse_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - t).count() /
        kParses);
  }

  // Per-batch figures are medians over the batches that are followed by
  // a discover (the timed loop's batches).
  const auto pick = [&](const std::vector<double>& all) {
    std::vector<double> picked;
    const size_t per_session = static_cast<size_t>(num_batches);
    for (size_t i = 0; i < all.size(); ++i) {
      if (static_cast<long>(i % per_session) + 1 >= discover_from) {
        picked.push_back(all[i]);
      }
    }
    return Median(picked);
  };
  const auto tail = [&](const std::string& name) {
    return pick(tracer.Each(name));
  };
  std::vector<double> append_path = tracer.Each("data.parse");
  for (const char* name : {"util.fingerprint", "core.incremental_append",
                           "service.snapshot_encode"}) {
    const std::vector<double> each = tracer.Each(name);
    for (size_t i = 0; i < append_path.size(); ++i) append_path[i] += each[i];
  }
  Metrics m;
  m["append_path_s"] = pick(append_path);
  m["data.parse_s"] = tail("data.parse");
  m["data.parse_mb_per_s"] =
      batch_bytes / 1e6 / tracer.Total("data.parse");
  m["util.fingerprint_mb_per_s"] =
      batch_bytes / 1e6 / tracer.Total("util.fingerprint");
  m["core.incremental_append_s"] = tail("core.incremental_append");
  m["core.current_fds_s"] = Median(tracer.Each("core.current_fds"));
  m["core.transform_samples"] = static_cast<double>(replay.samples);
  m["service.snapshot_encode_s"] = tail("service.snapshot_encode");
  m["service.snapshot_decode_s"] =
      tracer.Total("service.snapshot_decode") / static_cast<double>(streams);
  m["util.json_parse_us"] = Median(parse_us);
  AddSolver(replay.last_diagnostics, &m);
  m["trace.coverage"] = tracer.Coverage("replay");
  m["trace.wall_s"] = tracer.Total("replay");
  m["trace.overhead"] = (tracer.Total("replay") - untraced_s) / untraced_s;

  std::ofstream answers(fds_out, std::ios::binary);
  for (const std::string& answer : replay.answers) answers << answer << "\n";

  if (!tracer.Write(trace_out)) {
    std::fprintf(stderr, "pb_trace: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  tracer.PrintTree(stdout);
  Print(m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "file") return File(argc, argv);
  if (mode == "sessions") return Sessions(argc, argv);
  std::fprintf(stderr, "usage: pb_trace file|sessions ...\n");
  return 2;
}
