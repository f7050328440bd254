// Core benchmarks in two modes:
//
//   bench_micro_core --micro [--benchmark_filter=...]
//     The google-benchmark micro-benchmarks for the FDX building blocks:
//     pair transform, one pass's moments at each SIMD level,
//     covariance, graphical lasso, U D U^T factorization, stripped
//     partitions, and entropy.
//
//   bench_micro_core --oocore [--rows-max=N] [--attrs=K] [--out=PATH]
//     Out-of-core columnar store: CSV ingest throughput into a spilled
//     chunk store, streaming-transform time vs the in-memory transform
//     (bit-identity checked), and process peak RSS, at 100k / 1M / 5M
//     rows, written as BENCH_store.json. --max-in-memory-rows caps the
//     in-memory leg (skipped above it); --cache-mb bounds the decoded
//     column cache of the streaming leg.
//
// End-to-end and per-layer timings (CSV in, FDs out) come from
// perfbench/, not from here.

#include <benchmark/benchmark.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "baselines/cords.h"
#include "baselines/info_theory.h"
#include "baselines/tane.h"
#include "bench_util.h"
#include "core/fdx.h"
#include "core/transform.h"
#include "data/csv.h"
#include "eval/report.h"
#include "fd/partition.h"
#include "linalg/bitmatrix.h"
#include "linalg/factorization.h"
#include "linalg/glasso.h"
#include "linalg/simd.h"
#include "linalg/stats.h"
#include "store/chunked_table.h"
#include "store/stream_transform.h"
#include "synth/generator.h"
#include "util/file_io.h"
#include "util/json_writer.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace fdx {
namespace {

SyntheticDataset MakeData(size_t tuples, size_t attributes) {
  SyntheticConfig config;
  config.num_tuples = tuples;
  config.num_attributes = attributes;
  config.seed = 77;
  auto ds = GenerateSynthetic(config);
  return *std::move(ds);
}

void BM_PairTransformMoments(benchmark::State& state) {
  const SyntheticDataset ds =
      MakeData(static_cast<size_t>(state.range(0)),
               static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    auto moments = PairTransformMoments(ds.noisy, {});
    benchmark::DoNotOptimize(moments);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_PairTransformMoments)
    ->Args({1000, 8})
    ->Args({1000, 32})
    ->Args({10000, 8})
    ->Args({10000, 32})
    ->Args({12000, 384});

void BM_PairTransformCounts(benchmark::State& state) {
  const SyntheticDataset ds =
      MakeData(static_cast<size_t>(state.range(0)),
               static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    auto counts = PairTransformCounts(ds.noisy, {});
    benchmark::DoNotOptimize(counts);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_PairTransformCounts)->Args({10000, 8})->Args({10000, 32});

/// One pass's moments (BitMatrix::AccumulateMoments, one SimdOps::gram
/// call) over {pairs, columns} of random bits at ~10% density, the
/// density of `wide`'s passes, at the SimdLevel of the third argument
/// (clamped to what this machine runs; the label names it). The shapes
/// are the passes of perfbench's `wide`, `tall_capped` and `sessions`.
void BM_AccumulateMoments(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t cols = static_cast<size_t>(state.range(1));
  BitMatrix bits(rows, cols);
  Rng rng(rows + cols);
  for (size_t c = 0; c < cols; ++c) {
    for (size_t r = 0; r < rows; ++r) {
      if (rng.NextBernoulli(0.1)) bits.Set(r, c);
    }
  }
  std::vector<uint64_t> counts(cols, 0);
  std::vector<uint64_t> co_counts(cols * cols, 0);
  const SimdLevel ambient = ActiveSimdLevel();
  const SimdLevel level =
      SetSimdLevel(static_cast<SimdLevel>(state.range(2)));
  state.SetLabel(SimdLevelName(level));
  for (auto _ : state) {
    bits.AccumulateMoments(counts.data(), co_counts.data());
    benchmark::DoNotOptimize(co_counts.data());
    benchmark::ClobberMemory();
  }
  SetSimdLevel(ambient);
  state.SetBytesProcessed(state.iterations() * bits.words_per_column() *
                          cols * 8);
}
BENCHMARK(BM_AccumulateMoments)
    ->ArgsProduct({{12000}, {384}, {0, 1, 2}})
    ->ArgsProduct({{1000000}, {12}, {0, 1, 2}})
    ->ArgsProduct({{1000}, {16}, {0, 1, 2}});

void BM_GraphicalLasso(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const SyntheticDataset ds = MakeData(2000, k);
  auto moments = PairTransformMoments(ds.noisy, {});
  GlassoOptions options;
  for (auto _ : state) {
    auto result = GraphicalLasso(moments->cov, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_GraphicalLasso)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_UdutFactor(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Rng rng(3);
  Matrix m(k, k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) m(i, j) = rng.NextGaussian();
  }
  Matrix spd = m.Multiply(m.Transpose());
  for (size_t i = 0; i < k; ++i) spd(i, i) += static_cast<double>(k);
  for (auto _ : state) {
    auto result = UdutFactor(spd);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_UdutFactor)->Arg(16)->Arg(64)->Arg(128);

void BM_PartitionProduct(benchmark::State& state) {
  const SyntheticDataset ds =
      MakeData(static_cast<size_t>(state.range(0)), 8);
  const EncodedTable encoded = EncodedTable::Encode(ds.noisy);
  StrippedPartition a = StrippedPartition::FromColumn(encoded, 0);
  StrippedPartition b = StrippedPartition::FromColumn(encoded, 1);
  for (auto _ : state) {
    StrippedPartition product = StrippedPartition::Multiply(a, b);
    benchmark::DoNotOptimize(product);
  }
}
BENCHMARK(BM_PartitionProduct)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Entropy(benchmark::State& state) {
  const SyntheticDataset ds =
      MakeData(static_cast<size_t>(state.range(0)), 8);
  const EncodedTable encoded = EncodedTable::Encode(ds.noisy);
  const AttributeSet set = AttributeSet::FromIndices({0, 1, 2});
  for (auto _ : state) {
    const double h = Entropy(encoded, set);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_Entropy)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Covariance(benchmark::State& state) {
  Rng rng(4);
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  Matrix samples(n, k);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < k; ++j) samples(i, j) = rng.NextDouble();
  }
  for (auto _ : state) {
    auto cov = Covariance(samples);
    benchmark::DoNotOptimize(cov);
  }
}
BENCHMARK(BM_Covariance)->Args({10000, 16})->Args({10000, 64});

void BM_FdxEndToEnd(benchmark::State& state) {
  const SyntheticDataset ds =
      MakeData(static_cast<size_t>(state.range(0)),
               static_cast<size_t>(state.range(1)));
  FdxDiscoverer discoverer;
  for (auto _ : state) {
    auto result = discoverer.Discover(ds.noisy);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_FdxEndToEnd)->Args({1000, 8})->Args({1000, 32})->Args({5000, 16});

void BM_TaneEndToEnd(benchmark::State& state) {
  const SyntheticDataset ds =
      MakeData(static_cast<size_t>(state.range(0)), 8);
  TaneOptions options;
  options.max_lhs_size = 3;
  for (auto _ : state) {
    auto result = DiscoverTane(ds.noisy, options);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_TaneEndToEnd)->Arg(1000)->Arg(5000);

void BM_CordsEndToEnd(benchmark::State& state) {
  const SyntheticDataset ds =
      MakeData(static_cast<size_t>(state.range(0)), 12);
  for (auto _ : state) {
    auto result = DiscoverCords(ds.noisy, {});
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_CordsEndToEnd)->Arg(1000)->Arg(10000);

void BM_PermutationBias(benchmark::State& state) {
  const SyntheticDataset ds = MakeData(1000, 6);
  const EncodedTable encoded = EncodedTable::Encode(ds.noisy);
  Rng rng(11);
  const AttributeSet lhs = AttributeSet::FromIndices({0, 1});
  for (auto _ : state) {
    const double bias =
        PermutationBias(encoded, lhs, 3, static_cast<size_t>(state.range(0)),
                        &rng);
    benchmark::DoNotOptimize(bias);
  }
}
BENCHMARK(BM_PermutationBias)->Arg(1)->Arg(3)->Arg(10);

void BM_ExactPermutationBias(benchmark::State& state) {
  const SyntheticDataset ds =
      MakeData(static_cast<size_t>(state.range(0)), 6);
  const EncodedTable encoded = EncodedTable::Encode(ds.noisy);
  const AttributeSet lhs = AttributeSet::FromIndices({0, 1});
  for (auto _ : state) {
    const double bias = ExactPermutationBias(encoded, lhs, 3);
    benchmark::DoNotOptimize(bias);
  }
}
BENCHMARK(BM_ExactPermutationBias)->Arg(500)->Arg(2000);

/// Process-lifetime peak RSS in bytes (ru_maxrss is KiB on Linux).
uint64_t PeakRssBytes() {
  struct rusage usage = {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

/// On-disk footprint of a chunk store (manifest + chunk files).
uint64_t DirectoryBytes(const std::string& dir) {
  auto listing = ListDirectory(dir);
  if (!listing.ok()) return 0;
  uint64_t total = 0;
  for (const std::string& name : *listing) {
    struct stat st = {};
    if (::stat((dir + "/" + name).c_str(), &st) == 0) {
      total += static_cast<uint64_t>(st.st_size);
    }
  }
  return total;
}

/// One transform-mode cell: which payload codec. The bounded cache
/// always runs the wave schedule.
struct OocoreModeSpec {
  const char* name;
  bool compressed;
};

constexpr OocoreModeSpec kOocoreModes[] = {
    {"wave_raw", false},
    {"wave_varint", true},
};
constexpr size_t kNumOocoreModes = std::size(kOocoreModes);

struct OocoreModeCell {
  double transform_seconds = 0.0;
  bool bit_identical = true;
};

/// One row-count cell of the out-of-core report.
struct OocoreCase {
  size_t rows = 0;
  size_t chunks = 0;
  double ingest_seconds = 0.0;          ///< raw store
  double ingest_varint_seconds = 0.0;   ///< varint-compressed store
  uint64_t store_bytes_raw = 0;
  uint64_t store_bytes_varint = 0;
  double chunked_transform_seconds = 0.0;  ///< the wave_raw mode
  double in_memory_transform_seconds = -1.0;  ///< < 0 means skipped
  OocoreModeCell modes[kNumOocoreModes];
  bool bit_identical = true;  ///< every mode matches the reference
  uint64_t peak_rss_bytes = 0;
};

int RunOocoreReport(const bench::Flags& flags) {
  const size_t rows_max = flags.GetSize("rows-max", 5000000);
  const size_t attrs = flags.GetSize("attrs", 12);
  const size_t chunk_rows = flags.GetSize("chunk-rows", 65536);
  const size_t max_in_memory_rows =
      flags.GetSize("max-in-memory-rows", 5000000);
  const uint64_t cache_bytes =
      static_cast<uint64_t>(flags.GetSize("cache-mb", 64)) * 1024 * 1024;
  const std::string out_path = flags.GetString("out", "BENCH_store.json");
  const std::string work_dir = flags.GetString("work-dir", "bench_oocore");

  (void)RemoveDirectoryRecursive(work_dir);
  Status made = EnsureDirectory(work_dir);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.ToString().c_str());
    return 1;
  }
  const size_t threads = flags.GetSize("threads", 0);
  const std::string csv_path = work_dir + "/oocore.csv";
  const std::string store_dir = work_dir + "/store";
  const std::string store_dir_varint = work_dir + "/store-varint";

  // Streams one CSV into a spilled store under the named codec.
  const auto ingest_store = [&](const std::string& dir,
                                const std::string& codec,
                                ChunkedTable* store) -> Status {
    (void)RemoveDirectoryRecursive(dir);
    bool created = false;
    return ReadCsvChunked(
        csv_path, {}, chunk_rows, [&](Table&& chunk) -> Status {
          if (!created) {
            FDX_ASSIGN_OR_RETURN(
                *store, ChunkedTable::Create(chunk.schema(), dir, codec));
            created = true;
          }
          if (chunk.num_rows() == 0) return Status::OK();
          return store->AppendBatch(chunk);
        });
  };

  std::vector<OocoreCase> cases;
  for (size_t rows : std::vector<size_t>{100000, 1000000, 5000000}) {
    if (rows > rows_max) continue;
    OocoreCase cell;
    cell.rows = rows;

    std::printf("oocore %zu rows x %zu attrs: generating...\n", rows, attrs);
    const SyntheticDataset ds = MakeData(rows, attrs);
    Status written = WriteCsv(ds.noisy, csv_path);
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }

    // Ingest legs: the same CSV into a raw and a varint-compressed
    // store (identical fingerprints, different bytes on disk).
    ChunkedTable store;
    Stopwatch ingest_watch;
    Status ingest = ingest_store(store_dir, "", &store);
    if (!ingest.ok()) {
      std::fprintf(stderr, "%s\n", ingest.ToString().c_str());
      return 1;
    }
    cell.ingest_seconds = ingest_watch.ElapsedSeconds();
    cell.chunks = store.num_chunks();
    cell.store_bytes_raw = DirectoryBytes(store_dir);

    ChunkedTable store_varint;
    ingest_watch.Reset();
    ingest = ingest_store(store_dir_varint, "varint", &store_varint);
    if (!ingest.ok()) {
      std::fprintf(stderr, "%s\n", ingest.ToString().c_str());
      return 1;
    }
    cell.ingest_varint_seconds = ingest_watch.ElapsedSeconds();
    cell.store_bytes_varint = DirectoryBytes(store_dir_varint);

    // Transform legs: every codec, decoded columns bounded by --cache-mb.
    // The first mode is the reference; every other mode must reproduce
    // its bits exactly.
    Matrix reference_cov;
    for (size_t m = 0; m < kNumOocoreModes; ++m) {
      const OocoreModeSpec& spec = kOocoreModes[m];
      const ChunkedTable& mode_store = spec.compressed ? store_varint : store;
      StreamTransformOptions stream;
      stream.transform.threads = threads;
      stream.column_cache_bytes = cache_bytes;
      Stopwatch mode_watch;
      auto moments = StreamTransformMoments(mode_store, stream);
      cell.modes[m].transform_seconds = mode_watch.ElapsedSeconds();
      if (!moments.ok()) {
        std::fprintf(stderr, "%s: %s\n", spec.name,
                     moments.status().ToString().c_str());
        return 1;
      }
      if (m == 0) {
        reference_cov = moments->cov;
        cell.chunked_transform_seconds = cell.modes[m].transform_seconds;
      } else {
        cell.modes[m].bit_identical =
            moments->cov.Subtract(reference_cov).MaxAbs() == 0.0;
      }
    }

    // In-memory leg (skipped above the cap; the point of the store is
    // tables where this leg would not fit).
    if (rows <= max_in_memory_rows) {
      TransformOptions in_memory_options;
      in_memory_options.threads = threads;
      Stopwatch in_memory_watch;
      auto in_memory = PairTransformMoments(ds.noisy, in_memory_options);
      cell.in_memory_transform_seconds = in_memory_watch.ElapsedSeconds();
      if (!in_memory.ok()) {
        std::fprintf(stderr, "%s\n", in_memory.status().ToString().c_str());
        return 1;
      }
      cell.modes[0].bit_identical =
          reference_cov.Subtract(in_memory->cov).MaxAbs() == 0.0;
    }
    cell.bit_identical = true;
    for (const OocoreModeCell& mode : cell.modes) {
      if (!mode.bit_identical) cell.bit_identical = false;
    }
    cell.peak_rss_bytes = PeakRssBytes();
    cases.push_back(cell);
  }
  (void)RemoveDirectoryRecursive(work_dir);

  bool all_identical = true;
  ReportTable table({"Rows", "Chunks", "Ingest s", "Rows/s", "Wave s",
                     "Wave+varint s", "In-memory s", "Identical",
                     "Peak RSS MB"});
  for (const OocoreCase& cell : cases) {
    if (!cell.bit_identical) all_identical = false;
    table.AddRow(
        {std::to_string(cell.rows), std::to_string(cell.chunks),
         bench::Score3(cell.ingest_seconds),
         bench::Score3(cell.ingest_seconds > 0.0
                           ? static_cast<double>(cell.rows) /
                                 cell.ingest_seconds
                           : 0.0),
         bench::Score3(cell.modes[0].transform_seconds),
         bench::Score3(cell.modes[1].transform_seconds),
         cell.in_memory_transform_seconds < 0.0
             ? "skipped"
             : bench::Score3(cell.in_memory_transform_seconds),
         cell.bit_identical ? "yes" : "NO",
         std::to_string(cell.peak_rss_bytes / (1024 * 1024))});
  }
  std::printf("Out-of-core store (%zu attrs, chunk %zu rows, cache %zu MB)\n%s",
              attrs, chunk_rows,
              static_cast<size_t>(cache_bytes / (1024 * 1024)),
              table.ToString().c_str());

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("store_oocore");
  json.Key("attrs");
  json.Integer(static_cast<int64_t>(attrs));
  json.Key("chunk_rows");
  json.Integer(static_cast<int64_t>(chunk_rows));
  json.Key("column_cache_bytes");
  json.Integer(static_cast<int64_t>(cache_bytes));
  json.Key("threads");
  json.Integer(static_cast<int64_t>(ResolveThreadCount(threads)));
  json.Key("hardware_threads");
  json.Integer(static_cast<int64_t>(DefaultThreadCount()));
  if (ResolveThreadCount(threads) > DefaultThreadCount()) {
    json.Key("hardware_threads_note");
    json.String("thread counts above hardware_threads are oversubscribed");
  }
  json.Key("bit_identical");
  json.Bool(all_identical);
  json.Key("cases");
  json.BeginArray();
  for (const OocoreCase& cell : cases) {
    json.BeginObject();
    json.Key("rows");
    json.Integer(static_cast<int64_t>(cell.rows));
    json.Key("chunks");
    json.Integer(static_cast<int64_t>(cell.chunks));
    json.Key("ingest_seconds");
    json.Number(cell.ingest_seconds);
    json.Key("ingest_rows_per_second");
    json.Number(cell.ingest_seconds > 0.0
                    ? static_cast<double>(cell.rows) / cell.ingest_seconds
                    : 0.0);
    json.Key("ingest_varint_seconds");
    json.Number(cell.ingest_varint_seconds);
    json.Key("store_bytes_raw");
    json.Integer(static_cast<int64_t>(cell.store_bytes_raw));
    json.Key("store_bytes_varint");
    json.Integer(static_cast<int64_t>(cell.store_bytes_varint));
    json.Key("chunked_transform_seconds");
    json.Number(cell.chunked_transform_seconds);
    json.Key("modes");
    json.BeginObject();
    for (size_t m = 0; m < kNumOocoreModes; ++m) {
      json.Key(kOocoreModes[m].name);
      json.BeginObject();
      json.Key("transform_seconds");
      json.Number(cell.modes[m].transform_seconds);
      json.Key("bit_identical");
      json.Bool(cell.modes[m].bit_identical);
      json.EndObject();
    }
    json.EndObject();
    json.Key("in_memory_transform_seconds");
    if (cell.in_memory_transform_seconds < 0.0) {
      json.Null();
    } else {
      json.Number(cell.in_memory_transform_seconds);
    }
    json.Key("bit_identical");
    json.Bool(cell.bit_identical);
    json.Key("peak_rss_bytes");
    json.Integer(static_cast<int64_t>(cell.peak_rss_bytes));
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  const std::string doc = json.TakeString();
  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("Wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "Could not write %s\n", out_path.c_str());
    return 1;
  }
  return all_identical ? 0 : 2;
}

}  // namespace
}  // namespace fdx

int main(int argc, char** argv) {
  const fdx::bench::Flags flags(argc, argv);
  if (flags.Has("micro")) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }
  if (flags.Has("oocore")) {
    return fdx::RunOocoreReport(flags);
  }
  std::fprintf(stderr, "usage: bench_micro_core --micro [--benchmark_*] | "
                       "--oocore [--rows-max=N] [--attrs=K] [--out=PATH]\n");
  return 2;
}
