// fdxtool — command-line FD profiler built on the FDX library.
//
// Subcommands:
//   discover <csv>   discover FDs (text or JSON output)
//   profile  <csv>   discovery + dependency heatmap + repairability
//   validate <csv> --fd="A,B -> C"   validate one FD, list violations
//   repair   <csv> --fd="A,B -> C" --out=<csv>   majority-vote repair
//   compare  <csv>   run all discovery methods, report time and #FDs
//   rank     <csv>   score every unary AFD candidate under 4 measures
//   cfd      <csv>   discover constant conditional FDs
//   generate --out=<csv>   emit a synthetic dataset with planted FDs
//
// Common flags: --format=text|json, --lambda=, --tau=, --ordering=,
// --budget=, --tuples=, --attributes=, --noise=, --seed=, --max-pairs=,
// --time-budget= (wall-clock seconds; expired runs exit 4 with a
// Timeout status), --no-recovery (fail fast instead of retrying),
// --delimiter= (one byte other than '"', CR and LF; default ',').
//
// Beyond-RAM discovery (discover only): --max-memory-mb=N streams the
// CSV through a spillable chunk store and runs the bounded-memory
// transform under an N-MB process-RSS ceiling; --chunk-rows= caps the
// ingest chunk size (default 65536, lowered on wide inputs so a chunk's
// int32 codes take at most N/16 MB), --store-dir= keeps the chunk store
// (default: a temp dir next to the CSV, removed afterwards),
// --store-compression=none|varint picks the chunk payload codec, and
// --stable omits timing fields so the two paths' outputs can be
// compared byte-for-byte. Spilled chunks are read back with plain reads
// (never mapped), each verified against its fingerprint on first touch.
//
// Exit codes: 0 ok, 1 error, 2 usage, 3 validation violations, 4 timeout.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/fdx.h"
#include "data/csv.h"
#include "data/csv_reader.h"
#include "datasets/real_world.h"
#include "eval/report.h"
#include "eval/afd_ranking.h"
#include "eval/profiler.h"
#include "eval/runner.h"
#include "baselines/denial.h"
#include "baselines/ucc.h"
#include "fd/cfd.h"
#include "fd/validation.h"
#include "store/chunked_table.h"
#include "store/store_discover.h"
#include "synth/generator.h"
#include "util/file_io.h"
#include "util/flags.h"
#include "util/json_writer.h"
#include "util/string_util.h"

namespace fdx::tool {
namespace {

/// Largest --max-memory-mb whose byte count fits in 64 bits.
constexpr uint64_t kMaxMemoryMb = UINT64_MAX >> 20;

/// Prints a failure status and maps it to the tool's exit code
/// (4 for timeouts so scripts can distinguish budget expiry).
int FailWith(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return status.code() == StatusCode::kTimeout ? 4 : 1;
}

FdxOptions OptionsFromArgs(const Flags& args) {
  FdxOptions options;
  options.lambda = args.GetNumber("lambda", options.lambda);
  options.time_budget_seconds =
      args.GetNumber("time-budget", options.time_budget_seconds);
  if (args.Has("no-recovery")) options.recovery.enabled = false;
  options.sparsity_threshold =
      args.GetNumber("tau", options.sparsity_threshold);
  options.relative_threshold =
      args.GetNumber("relative", options.relative_threshold);
  options.transform.max_pairs_per_attribute = args.GetCount("max-pairs", 0);
  const std::string ordering = args.Get("ordering");
  if (!ordering.empty()) {
    auto parsed = ParseOrderingMethod(ordering);
    if (!parsed.ok()) {
      std::fprintf(stderr, "fdxtool: --ordering=%s: %s\n", ordering.c_str(),
                   parsed.status().message().c_str());
      std::exit(2);
    }
    options.ordering = *parsed;
  }
  const std::string solver = args.Get("solver");
  if (!solver.empty() && !ParseGlassoSolver(solver, &options.glasso.solver)) {
    std::fprintf(stderr,
                 "fdxtool: --solver=%s: expected auto, cd or newton\n",
                 solver.c_str());
    std::exit(2);
  }
  const Status valid = ValidateFdxOptions(options);
  if (!valid.ok()) {
    std::fprintf(stderr, "fdxtool: %s\n", valid.message().c_str());
    std::exit(2);
  }
  return options;
}

/// --delimiter: exactly one byte that CheckCsvDelimiter accepts. A bad
/// value exits 2 naming the flag, as every malformed flag does.
CsvOptions CsvOptionsFromArgs(const Flags& args) {
  CsvOptions csv;
  csv.delimiter = args.GetByte("delimiter", csv.delimiter);
  const Status delimiter = CheckCsvDelimiter(csv.delimiter);
  if (!delimiter.ok()) {
    std::fprintf(stderr, "fdxtool: --delimiter=%c: %s\n", csv.delimiter,
                 delimiter.message().c_str());
    std::exit(2);
  }
  return csv;
}

Result<Table> LoadTable(const Flags& args, const std::string& path) {
  return ReadCsv(path, CsvOptionsFromArgs(args));
}

/// `stable` drops every timing-derived field (transform/learning
/// seconds, diagnostics) so the in-memory and out-of-core paths emit
/// byte-identical JSON for the same table — CI compares them with cmp.
void EmitFdsJson(const Schema& schema, size_t rows, const FdxResult& result,
                 bool stable) {
  std::vector<std::string> attribute_names;
  for (size_t c = 0; c < schema.size(); ++c) {
    attribute_names.push_back(schema.name(c));
  }
  JsonWriter json;
  json.BeginObject();
  json.Key("rows");
  json.Integer(static_cast<int64_t>(rows));
  json.Key("columns");
  json.Integer(static_cast<int64_t>(schema.size()));
  if (!stable) {
    json.Key("transform_seconds");
    json.Number(result.transform_seconds);
    json.Key("learning_seconds");
    json.Number(result.learning_seconds);
    json.Key("diagnostics");
    WriteRunDiagnosticsJson(&json, result.diagnostics, attribute_names);
  }
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
  std::printf("%s\n", json.TakeString().c_str());
}

/// Text twin of EmitFdsJson with the same `stable` contract.
void EmitFdsText(const Schema& schema, size_t rows, const FdxResult& result,
                 bool stable) {
  if (stable) {
    std::printf("%zu rows x %zu columns; %zu FDs discovered\n\n%s", rows,
                schema.size(), result.fds.size(),
                FdSetToString(result.fds, schema).c_str());
    return;
  }
  std::printf("%zu rows x %zu columns; %zu FDs discovered in %.3fs\n\n%s",
              rows, schema.size(), result.fds.size(),
              result.transform_seconds + result.learning_seconds,
              FdSetToString(result.fds, schema).c_str());
  std::vector<std::string> names;
  for (size_t c = 0; c < schema.size(); ++c) names.push_back(schema.name(c));
  const std::string diagnostics =
      RenderRunDiagnostics(result.diagnostics, names);
  if (!diagnostics.empty()) std::printf("\n%s", diagnostics.c_str());
}

/// The beyond-RAM discover path: stream the CSV's code batches into a
/// spillable chunk store, then run the bounded-memory transform + the
/// usual structure learning under a process-RSS ceiling. Bit-identical
/// results to the in-memory path (EmitFds* with --stable makes that
/// checkable by cmp).
int StreamingDiscover(const Flags& args, const std::string& path) {
  // Every flag is read before the store directory exists, so a rejected
  // value leaves nothing behind.
  const uint64_t rss_limit =
      args.GetCount("max-memory-mb", 0, 0, kMaxMemoryMb) << 20;
  const size_t chunk_rows = args.GetCount("chunk-rows", 65536, /*min=*/1);
  const CsvOptions csv = CsvOptionsFromArgs(args);
  StoreDiscoverOptions options;
  options.fdx = OptionsFromArgs(args);
  options.rss_limit_bytes = rss_limit;
  // Decoded columns may use at most a quarter of the ceiling; the rest
  // is left for dictionaries, counts, and the process baseline.
  options.column_cache_bytes = rss_limit / 4;
  std::string store_dir = args.Get("store-dir");
  const bool temp_store = store_dir.empty();
  if (temp_store) {
    store_dir = path + ".fdxstore";
    (void)RemoveDirectoryRecursive(store_dir);  // stale leftovers
  }

  const std::string codec = args.Get("store-compression");
  ChunkedTable store;
  const auto ingest = [&]() -> Status {
    // The reader's working set is a few times its window, so a window of
    // a sixteenth of the ceiling keeps ingest to a fraction of it at any
    // thread count.
    FDX_ASSIGN_OR_RETURN(CsvReader reader,
                         CsvReader::Open(path, csv, rss_limit / 16));
    FDX_ASSIGN_OR_RETURN(store, ChunkedTable::Create(reader.schema(),
                                                     store_dir, codec));
    // Ingest holds a chunk as int32 codes and again as its serialization,
    // so a chunk's codes get the reader window's share too: a sixteenth
    // of the ceiling at 4 bytes a cell. Narrow inputs keep --chunk-rows.
    const uint64_t cells = rss_limit / 16 / 4;
    const uint64_t rows = std::max<uint64_t>(
        1, cells / std::max<size_t>(1, reader.schema().size()));
    return store.AppendCsv(&reader, std::min<uint64_t>(chunk_rows, rows));
  };
  const Status read = ingest();
  if (!read.ok()) {
    if (temp_store) (void)RemoveDirectoryRecursive(store_dir);
    std::fprintf(stderr, "%s\n", read.ToString().c_str());
    return 1;
  }

  auto result = DiscoverFromStore(store, options);
  const Schema schema = store.schema();
  const size_t rows = store.num_rows();
  if (temp_store) (void)RemoveDirectoryRecursive(store_dir);
  if (!result.ok()) return FailWith(result.status());
  if (args.Get("format") == "json") {
    EmitFdsJson(schema, rows, *result, args.Has("stable"));
  } else {
    EmitFdsText(schema, rows, *result, args.Has("stable"));
  }
  return 0;
}

/// discover: the CSV goes straight to dictionary codes (ReadCsvEncoded in
/// memory, ChunkedTable::AppendCsv under --max-memory-mb); neither path
/// builds a Table.
int Discover(const Flags& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr, "usage: fdxtool discover <csv> [flags]\n");
    return 2;
  }
  if (args.GetCount("max-memory-mb", 0, 0, kMaxMemoryMb) > 0) {
    return StreamingDiscover(args, args.positional()[0]);
  }
  auto table = ReadCsvEncoded(args.positional()[0], CsvOptionsFromArgs(args));
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  FdxDiscoverer discoverer(OptionsFromArgs(args));
  auto result = discoverer.Discover(*table);
  if (!result.ok()) return FailWith(result.status());
  if (args.Get("format") == "json") {
    EmitFdsJson(table->schema(), table->num_rows(), *result,
                args.Has("stable"));
  } else {
    EmitFdsText(table->schema(), table->num_rows(), *result,
                args.Has("stable"));
  }
  return 0;
}

int Profile(const Flags& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr, "usage: fdxtool profile <csv> [flags]\n");
    return 2;
  }
  auto table = LoadTable(args, args.positional()[0]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  FdxDiscoverer discoverer(OptionsFromArgs(args));
  auto result = discoverer.Discover(*table);
  if (!result.ok()) return FailWith(result.status());
  const Schema& schema = table->schema();
  std::printf("Dependency heatmap (rows determine columns):\n\n");
  static const char kScale[] = " .:-=+*#%@";
  for (size_t i = 0; i < schema.size(); ++i) {
    std::printf("  ");
    for (size_t j = 0; j < schema.size(); ++j) {
      const double v = std::min(
          1.0, std::max(0.0, result->autoregression(i, j)));
      std::printf(" %c ", kScale[static_cast<size_t>(v * 9.0)]);
    }
    std::printf(" %s\n", schema.name(i).c_str());
  }
  std::printf("\nDiscovered FDs (with g3 validation error):\n");
  const EncodedTable encoded = EncodedTable::Encode(*table);
  for (const auto& fd : result->fds) {
    std::printf("  %-50s %.4f\n", fd.ToString(schema).c_str(),
                FdG3Error(encoded, fd));
  }
  std::vector<std::string> names;
  for (size_t c = 0; c < schema.size(); ++c) names.push_back(schema.name(c));
  const std::string diagnostics =
      RenderRunDiagnostics(result->diagnostics, names);
  if (!diagnostics.empty()) std::printf("\n%s", diagnostics.c_str());
  return 0;
}

int Validate(const Flags& args) {
  if (args.positional().empty() || args.Get("fd").empty()) {
    std::fprintf(stderr,
                 "usage: fdxtool validate <csv> --fd=\"A,B -> C\"\n");
    return 2;
  }
  auto table = LoadTable(args, args.positional()[0]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  auto fd = ParseFd(table->schema(), args.Get("fd"));
  if (!fd.ok()) {
    std::fprintf(stderr, "%s\n", fd.status().ToString().c_str());
    return 1;
  }
  const EncodedTable encoded = EncodedTable::Encode(*table);
  auto report = ValidateFd(encoded, *fd);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "%s\n  g3 error: %.4f\n  LHS groups: %zu (%zu violating)\n",
      fd->ToString(table->schema()).c_str(), report->g3_error,
      report->groups, report->violating_groups);
  const size_t shown = std::min<size_t>(report->violations.size(), 10);
  for (size_t v = 0; v < shown; ++v) {
    const auto& violation = report->violations[v];
    std::printf("  violation: rows");
    for (size_t r : violation.deviating_rows) std::printf(" %zu", r);
    std::printf(" deviate from the majority of their group\n");
  }
  if (report->violations.size() > shown) {
    std::printf("  ... and %zu more violating groups\n",
                report->violations.size() - shown);
  }
  return report->violating_groups == 0 ? 0 : 3;
}

int Repair(const Flags& args) {
  if (args.positional().empty() || args.Get("fd").empty() ||
      args.Get("out").empty()) {
    std::fprintf(
        stderr,
        "usage: fdxtool repair <csv> --fd=\"A,B -> C\" --out=<csv>\n");
    return 2;
  }
  auto table = LoadTable(args, args.positional()[0]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  auto fd = ParseFd(table->schema(), args.Get("fd"));
  if (!fd.ok()) {
    std::fprintf(stderr, "%s\n", fd.status().ToString().c_str());
    return 1;
  }
  const EncodedTable encoded = EncodedTable::Encode(*table);
  ValidationOptions options;
  options.max_violations = 0;
  auto repairs = SuggestRepairs(encoded, *fd, options);
  if (!repairs.ok()) {
    std::fprintf(stderr, "%s\n", repairs.status().ToString().c_str());
    return 1;
  }
  const Table repaired = ApplyRepairs(*table, *repairs);
  Status written = WriteCsv(repaired, args.Get("out"));
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("applied %zu repairs; wrote %s\n", repairs->size(),
              args.Get("out").c_str());
  return 0;
}

int Compare(const Flags& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr, "usage: fdxtool compare <csv> [--budget=S]\n");
    return 2;
  }
  auto table = LoadTable(args, args.positional()[0]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  RunnerConfig config;
  config.time_budget_seconds = args.GetNumber("budget", 30.0);
  config.expected_error = args.GetNumber("error", 0.01);
  config.fdx = OptionsFromArgs(args);
  std::printf("time budget: %s s per method\n\n",
              FormatDouble(config.time_budget_seconds, 1).c_str());
  ReportTable report({"method", "time (s)", "# FDs", "status"});
  for (MethodId method : AllMethods()) {
    RunOutcome outcome = RunMethod(method, *table, config);
    report.AddRow({MethodName(method), FormatDouble(outcome.seconds, 2),
                   outcome.ok ? std::to_string(outcome.fds.size()) : "-",
                   outcome.ok ? "ok"
                              : (outcome.timeout ? "timeout" : "failed")});
  }
  std::printf("%s", report.ToString().c_str());
  return 0;
}

int Report(const Flags& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr, "usage: fdxtool report <csv>\n");
    return 2;
  }
  auto table = LoadTable(args, args.positional()[0]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  ProfilerOptions options;
  options.fdx = OptionsFromArgs(args);
  auto profile = ProfileTable(*table, options);
  if (!profile.ok()) return FailWith(profile.status());
  std::printf("%s", RenderProfile(*profile, table->schema()).c_str());
  return 0;
}

int Dc(const Flags& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: fdxtool dc <csv> [--max-predicates=K]"
                 " [--sample-pairs=N] [--top=N]\n");
    return 2;
  }
  auto table = LoadTable(args, args.positional()[0]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  DcOptions options;
  options.max_predicates = args.GetCount("max-predicates", 3);
  options.sample_pairs = args.GetCount("sample-pairs", 20000);
  auto dcs = DiscoverDenialConstraints(*table, options);
  if (!dcs.ok()) {
    std::fprintf(stderr, "%s\n", dcs.status().ToString().c_str());
    return 1;
  }
  const size_t top = args.GetCount("top", 40);
  std::printf("%zu minimal denial constraints (showing up to %zu):\n",
              dcs->size(), top);
  for (size_t i = 0; i < dcs->size() && i < top; ++i) {
    std::printf("  %s\n", (*dcs)[i].ToString(table->schema()).c_str());
  }
  return 0;
}

int Keys(const Flags& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: fdxtool keys <csv> [--error=E] [--max-size=K]\n");
    return 2;
  }
  auto table = LoadTable(args, args.positional()[0]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  UccOptions options;
  options.max_error = args.GetNumber("error", 0.0);
  options.max_size = args.GetCount("max-size", 3);
  auto uccs = DiscoverUccs(*table, options);
  if (!uccs.ok()) {
    std::fprintf(stderr, "%s\n", uccs.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu minimal unique column combinations:\n", uccs->size());
  for (const auto& ucc : *uccs) {
    std::printf("  {");
    for (size_t i = 0; i < ucc.attributes.size(); ++i) {
      std::printf("%s%s", i > 0 ? ", " : "",
                  table->schema().name(ucc.attributes[i]).c_str());
    }
    std::printf("}  error=%.4f\n", ucc.error);
  }
  return 0;
}

int Cfd(const Flags& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: fdxtool cfd <csv> [--support=S] [--confidence=C]"
                 " [--max-lhs=K] [--top=N]\n");
    return 2;
  }
  auto table = LoadTable(args, args.positional()[0]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  CfdOptions options;
  options.min_support = args.GetNumber("support", options.min_support);
  options.min_confidence =
      args.GetNumber("confidence", options.min_confidence);
  options.max_lhs_size = args.GetCount("max-lhs", 2);
  auto cfds = DiscoverConstantCfds(*table, options);
  if (!cfds.ok()) {
    std::fprintf(stderr, "%s\n", cfds.status().ToString().c_str());
    return 1;
  }
  const size_t top = args.GetCount("top", 40);
  std::printf("%zu constant CFDs (showing up to %zu):\n", cfds->size(),
              top);
  for (size_t i = 0; i < cfds->size() && i < top; ++i) {
    const ConditionalFd& cfd = (*cfds)[i];
    std::printf("  %-60s support=%.3f confidence=%.3f\n",
                cfd.ToString(table->schema()).c_str(), cfd.support,
                cfd.confidence);
  }
  return 0;
}

int Rank(const Flags& args) {
  if (args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: fdxtool rank <csv> [--min-score=S] [--top=N]\n");
    return 2;
  }
  auto table = LoadTable(args, args.positional()[0]);
  if (!table.ok()) {
    std::fprintf(stderr, "%s\n", table.status().ToString().c_str());
    return 1;
  }
  AfdRankingOptions options;
  options.min_reliable_fraction = args.GetNumber("min-score", 0.05);
  auto ranked = RankUnaryAfds(*table, options);
  if (!ranked.ok()) {
    std::fprintf(stderr, "%s\n", ranked.status().ToString().c_str());
    return 1;
  }
  const size_t top = args.GetCount("top", 20);
  ReportTable report(
      {"candidate FD", "reliable", "frac-info", "g3", "strength"});
  for (size_t i = 0; i < ranked->size() && i < top; ++i) {
    const AfdCandidate& c = (*ranked)[i];
    report.AddRow({c.fd.ToString(table->schema()),
                   FormatDouble(c.reliable_fraction, 3),
                   FormatDouble(c.fraction_of_information, 3),
                   FormatDouble(c.g3_error, 3),
                   FormatDouble(c.strength, 3)});
  }
  std::printf("%s", report.ToString().c_str());
  return 0;
}

int Generate(const Flags& args) {
  if (args.Get("out").empty()) {
    std::fprintf(stderr,
                 "usage: fdxtool generate --out=<csv> [--tuples=N]"
                 " [--attributes=K] [--noise=R] [--seed=S]\n");
    return 2;
  }
  SyntheticConfig config;
  config.num_tuples = args.GetCount("tuples", 1000);
  config.num_attributes = args.GetCount("attributes", 10);
  config.noise_rate = args.GetNumber("noise", 0.01);
  config.seed = args.GetCount("seed", 42);
  auto ds = GenerateSynthetic(config);
  if (!ds.ok()) {
    std::fprintf(stderr, "%s\n", ds.status().ToString().c_str());
    return 1;
  }
  Status written = WriteCsv(ds->noisy, args.Get("out"));
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu rows, %zu attributes)\nplanted FDs:\n%s",
              args.Get("out").c_str(), ds->noisy.num_rows(),
              ds->noisy.num_columns(),
              FdSetToString(ds->true_fds, ds->noisy.schema()).c_str());
  return 0;
}

int Usage() {
  std::fprintf(
      stderr,
      "fdxtool — statistical FD discovery (FDX, SIGMOD 2020)\n\n"
      "subcommands:\n"
      "  discover <csv>                    discover FDs\n"
      "  profile <csv>                     heatmap + validated FDs\n"
      "  validate <csv> --fd=\"A -> B\"      validate one FD\n"
      "  repair <csv> --fd=.. --out=<csv>  majority-vote repair\n"
      "  compare <csv>                     run all methods\n"
      "  rank <csv>                        score unary AFD candidates\n"
      "  cfd <csv>                         constant conditional FDs\n"
      "  generate --out=<csv>              synthetic data generator\n\n"
      "robustness flags:\n"
      "  --time-budget=S   wall-clock budget in seconds; expired runs\n"
      "                    exit 4 with a Timeout status\n"
      "  --no-recovery     fail fast on numerical errors instead of\n"
      "                    retrying with ridge escalation / fallback\n"
      "  --solver=NAME     glasso backend: auto (default; Newton on\n"
      "                    large dense components, CD elsewhere), cd,\n"
      "                    or newton\n\n"
      "beyond-RAM flags (discover):\n"
      "  --max-memory-mb=N stream the CSV through a spillable chunk\n"
      "                    store and discover under an N-MB RSS ceiling\n"
      "  --chunk-rows=N    ingest chunk size (default 65536); wide\n"
      "                    inputs get fewer rows, so a chunk's int32\n"
      "                    codes take at most 1/16 of --max-memory-mb\n"
      "  --store-dir=DIR   keep the chunk store at DIR (default: temp)\n"
      "  --store-compression=none|varint\n"
      "                    chunk payload codec (varint delta-compresses\n"
      "                    dictionary codes; results are identical)\n"
      "  --stable          omit timing fields so in-memory and chunked\n"
      "                    outputs compare byte-for-byte\n");
  return 2;
}

}  // namespace
}  // namespace fdx::tool

int main(int argc, char** argv) {
  using namespace fdx::tool;
  if (argc < 2) return Usage();
  const fdx::Flags args("fdxtool", argc, argv, 2);
  const std::string command = argv[1];
  if (command == "discover") return Discover(args);
  if (command == "profile") return Profile(args);
  if (command == "validate") return Validate(args);
  if (command == "repair") return Repair(args);
  if (command == "compare") return Compare(args);
  if (command == "report") return Report(args);
  if (command == "dc") return Dc(args);
  if (command == "keys") return Keys(args);
  if (command == "cfd") return Cfd(args);
  if (command == "rank") return Rank(args);
  if (command == "generate") return Generate(args);
  return Usage();
}
