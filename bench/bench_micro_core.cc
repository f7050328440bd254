// Core benchmarks in two modes:
//
//   bench_micro_core [--rows=N] [--attrs=K] [--reps=R] [--out=PATH]
//     Thread-scaling report (the default): wall time of the pair
//     transform, covariance, and end-to-end FdxDiscover at 1, 2, 8, and
//     hardware threads, written as a text table and as BENCH_core.json
//     so the perf trajectory is tracked PR over PR.
//
//   bench_micro_core --micro [--benchmark_filter=...]
//     The original google-benchmark micro-benchmarks for the FDX
//     building blocks: pair transform, covariance, graphical lasso,
//     U D U^T factorization, stripped partitions, and entropy.
//
//   bench_micro_core --glasso [--kmax=K] [--reps=R] [--out=PATH]
//     Graphical-lasso solver scaling: the decomposed fast path vs the
//     dense reference solver at k in {20, 50, 100, 200} across sparsity
//     structures (block-diagonal, banded, dense, mixed), plus a
//     warm-start cold-vs-warm cell, written as BENCH_glasso.json with a
//     per-stage breakdown (screen / decompose / solve / assemble).
//
//   bench_micro_core --oocore [--rows-max=N] [--attrs=K] [--out=PATH]
//     Out-of-core columnar store: CSV ingest throughput into a spilled
//     chunk store, streaming-transform time vs the in-memory transform
//     (bit-identity checked), and process peak RSS, at 100k / 1M / 5M
//     rows, written as BENCH_store.json. --max-in-memory-rows caps the
//     in-memory leg (skipped above it); --cache-mb bounds the decoded
//     column cache of the streaming leg.

#include <benchmark/benchmark.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
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
    ->Args({10000, 32});

void BM_PairTransformPacked(benchmark::State& state) {
  const SyntheticDataset ds =
      MakeData(static_cast<size_t>(state.range(0)),
               static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    auto packed = PairTransformPacked(ds.noisy, {});
    benchmark::DoNotOptimize(packed);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_PairTransformPacked)->Args({10000, 8})->Args({10000, 32});

void BM_PairTransformPackedScalar(benchmark::State& state) {
  const SyntheticDataset ds =
      MakeData(static_cast<size_t>(state.range(0)),
               static_cast<size_t>(state.range(1)));
  const SimdLevel ambient = ActiveSimdLevel();
  SetSimdLevel(SimdLevel::kScalar);
  for (auto _ : state) {
    auto packed = PairTransformPacked(ds.noisy, {});
    benchmark::DoNotOptimize(packed);
  }
  SetSimdLevel(ambient);
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          state.range(1));
}
BENCHMARK(BM_PairTransformPackedScalar)->Args({10000, 8})->Args({10000, 32});

void BM_BitMatrixUnpackRows(benchmark::State& state) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t cols = static_cast<size_t>(state.range(1));
  Rng rng(9);
  BitMatrix bits(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (rng.NextBernoulli(0.5)) bits.Set(r, c);
    }
  }
  Matrix dense(rows, cols);
  for (auto _ : state) {
    bits.UnpackRows(0, rows, &dense);
    benchmark::DoNotOptimize(dense);
  }
  state.SetItemsProcessed(state.iterations() * rows * cols);
}
BENCHMARK(BM_BitMatrixUnpackRows)->Args({100000, 16})->Args({100000, 64});

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

/// One stage x thread-count cell of the scaling report.
struct ScalingResult {
  size_t threads = 0;
  double seconds = 0.0;
};

struct ScalingStage {
  std::string name;
  std::vector<ScalingResult> results;
};

/// Median wall time of `reps` runs of `body`.
template <typename Fn>
double MedianSeconds(size_t reps, Fn&& body) {
  std::vector<double> times;
  times.reserve(reps);
  for (size_t r = 0; r < reps; ++r) {
    Stopwatch watch;
    body();
    times.push_back(watch.ElapsedSeconds());
  }
  return Median(times);
}

int RunScalingReport(const bench::Flags& flags) {
  const size_t rows = flags.GetSize("rows", 100000);
  const size_t attrs = flags.GetSize("attrs", 20);
  const size_t reps = flags.GetSize("reps", 3);
  const std::string out_path = flags.GetString("out", "BENCH_core.json");

  std::vector<size_t> thread_counts = {1, 2, 8, DefaultThreadCount()};
  std::sort(thread_counts.begin(), thread_counts.end());
  thread_counts.erase(
      std::unique(thread_counts.begin(), thread_counts.end()),
      thread_counts.end());

  std::printf("Generating synthetic table: %zu rows x %zu attributes...\n",
              rows, attrs);
  const SyntheticDataset ds = MakeData(rows, attrs);

  // Covariance input: a dense gaussian sample matrix of the same shape.
  Rng rng(21);
  Matrix samples(rows, attrs);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < attrs; ++j) samples(i, j) = rng.NextGaussian();
  }

  // The three transform_* stages break pair_transform_moments into its
  // packed-engine phases (counting sort / bit packing / popcount
  // accumulation). They are *CPU* seconds summed across worker threads,
  // so at T threads they can exceed the stage's wall time.
  std::vector<ScalingStage> stages = {{"pair_transform_moments", {}},
                                      {"transform_sort", {}},
                                      {"transform_pack", {}},
                                      {"transform_accumulate", {}},
                                      {"covariance", {}},
                                      {"fdx_discover", {}}};
  bool deterministic = true;
  Matrix reference_cov;  // transform covariance at 1 thread

  for (size_t threads : thread_counts) {
    TransformOptions transform;
    transform.threads = threads;
    std::vector<double> total_times, sort_times, pack_times, acc_times;
    for (size_t r = 0; r < reps; ++r) {
      TransformProfile profile;
      transform.profile = &profile;
      Stopwatch watch;
      auto moments = PairTransformMoments(ds.noisy, transform);
      benchmark::DoNotOptimize(moments);
      total_times.push_back(watch.ElapsedSeconds());
      sort_times.push_back(profile.sort_seconds);
      pack_times.push_back(profile.pack_seconds);
      acc_times.push_back(profile.accumulate_seconds);
    }
    transform.profile = nullptr;
    stages[0].results.push_back({threads, Median(total_times)});
    stages[1].results.push_back({threads, Median(sort_times)});
    stages[2].results.push_back({threads, Median(pack_times)});
    stages[3].results.push_back({threads, Median(acc_times)});
    // Determinism check rides along: the moments at every thread count
    // must match the 1-thread reference bitwise.
    auto moments = PairTransformMoments(ds.noisy, transform);
    if (moments.ok()) {
      if (reference_cov.empty()) {
        reference_cov = moments->cov;
      } else if (moments->cov.Subtract(reference_cov).MaxAbs() != 0.0) {
        deterministic = false;
      }
    }

    const double cov_secs = MedianSeconds(reps, [&] {
      auto cov = Covariance(samples, threads);
      benchmark::DoNotOptimize(cov);
    });
    stages[4].results.push_back({threads, cov_secs});

    FdxOptions fdx_options;
    fdx_options.threads = threads;
    FdxDiscoverer discoverer(fdx_options);
    const double e2e_secs = MedianSeconds(reps, [&] {
      auto result = discoverer.Discover(ds.noisy);
      benchmark::DoNotOptimize(result);
    });
    stages[5].results.push_back({threads, e2e_secs});
  }

  // SIMD cell: the packed transform at the scalar fallback vs the
  // runtime-dispatched level, single-threaded so the kernel dominates.
  // Bit-identity of the packed output rides along.
  const SimdLevel simd_ambient = ActiveSimdLevel();
  TransformOptions simd_transform;
  simd_transform.threads = 1;
  SetSimdLevel(SimdLevel::kScalar);
  const double pack_scalar_secs = MedianSeconds(reps, [&] {
    auto packed = PairTransformPacked(ds.noisy, simd_transform);
    benchmark::DoNotOptimize(packed);
  });
  auto simd_scalar_packed = PairTransformPacked(ds.noisy, simd_transform);
  SetSimdLevel(simd_ambient);
  const double pack_simd_secs = MedianSeconds(reps, [&] {
    auto packed = PairTransformPacked(ds.noisy, simd_transform);
    benchmark::DoNotOptimize(packed);
  });
  auto simd_active_packed = PairTransformPacked(ds.noisy, simd_transform);
  const bool simd_bit_identical =
      simd_scalar_packed.ok() && simd_active_packed.ok() &&
      simd_active_packed->IdenticalTo(*simd_scalar_packed);
  if (!simd_bit_identical) deterministic = false;

  ReportTable table({"Stage", "Threads", "Seconds", "Speedup"});
  for (const ScalingStage& stage : stages) {
    const double base = stage.results.front().seconds;
    for (size_t i = 0; i < stage.results.size(); ++i) {
      const ScalingResult& r = stage.results[i];
      table.AddRow({i == 0 ? stage.name : "", std::to_string(r.threads),
                    bench::Score3(r.seconds),
                    r.seconds > 0.0 ? bench::Score3(base / r.seconds) : "-"});
    }
  }
  std::printf(
      "Core thread-scaling (%zu rows x %zu attrs, median of %zu reps, "
      "hardware threads: %zu)\n%s"
      "Transform determinism across thread counts: %s\n"
      "SIMD pack (1 thread): scalar %ss, %s %ss (%sx, %s)\n",
      rows, attrs, reps, DefaultThreadCount(), table.ToString().c_str(),
      deterministic ? "bit-identical" : "MISMATCH",
      bench::Score3(pack_scalar_secs).c_str(), SimdLevelName(simd_ambient),
      bench::Score3(pack_simd_secs).c_str(),
      pack_simd_secs > 0.0 ? bench::Score3(pack_scalar_secs / pack_simd_secs)
                                 .c_str()
                           : "-",
      simd_bit_identical ? "bit-identical" : "MISMATCH");
  if (DefaultThreadCount() < 8) {
    std::printf(
        "Note: only %zu hardware thread(s) available; the 2- and 8-thread "
        "cells are oversubscribed and do not reflect parallel speedup.\n",
        DefaultThreadCount());
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("core_scaling");
  json.Key("rows");
  json.Integer(static_cast<int64_t>(rows));
  json.Key("attrs");
  json.Integer(static_cast<int64_t>(attrs));
  json.Key("reps");
  json.Integer(static_cast<int64_t>(reps));
  json.Key("hardware_threads");
  json.Integer(static_cast<int64_t>(DefaultThreadCount()));
  if (DefaultThreadCount() < 8) {
    // Thread cells beyond the core count are oversubscription, not
    // parallel speedup; record the caveat next to the numbers.
    json.Key("hardware_threads_note");
    json.String("thread counts above hardware_threads are oversubscribed");
  }
  json.Key("transform_deterministic");
  json.Bool(deterministic);
  json.Key("simd");
  json.BeginObject();
  json.Key("level");
  json.String(SimdLevelName(simd_ambient));
  json.Key("detected_level");
  json.String(SimdLevelName(DetectedSimdLevel()));
  json.Key("pack_scalar_seconds");
  json.Number(pack_scalar_secs);
  json.Key("pack_simd_seconds");
  json.Number(pack_simd_secs);
  json.Key("pack_speedup");
  json.Number(pack_simd_secs > 0.0 ? pack_scalar_secs / pack_simd_secs : 0.0);
  json.Key("bit_identical");
  json.Bool(simd_bit_identical);
  json.EndObject();
  json.Key("stages");
  json.BeginArray();
  for (const ScalingStage& stage : stages) {
    json.BeginObject();
    json.Key("name");
    json.String(stage.name);
    json.Key("results");
    json.BeginArray();
    const double base = stage.results.front().seconds;
    for (const ScalingResult& r : stage.results) {
      json.BeginObject();
      json.Key("threads");
      json.Integer(static_cast<int64_t>(r.threads));
      json.Key("seconds");
      json.Number(r.seconds);
      json.Key("speedup_vs_1");
      json.Number(r.seconds > 0.0 ? base / r.seconds : 0.0);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  const std::string& path = out_path;
  const std::string doc = json.TakeString();
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("Wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "Could not write %s\n", path.c_str());
    return 1;
  }
  return deterministic ? 0 : 2;
}

/// Deterministic correlation-style inputs for the solver scaling report.
/// All are symmetric positive definite by construction, so the bench
/// exercises the solver, not input pathology.
Matrix BlockCorrelation(size_t k, size_t block, double rho) {
  Matrix s(k, k);
  for (size_t i = 0; i < k; ++i) {
    s(i, i) = 1.0;
    for (size_t j = i + 1; j < k; ++j) {
      if (i / block == j / block) {
        s(i, j) = rho;
        s(j, i) = rho;
      }
    }
  }
  return s;
}

Matrix BandedCorrelation(size_t k, double rho) {
  Matrix s(k, k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      s(i, j) = std::pow(rho, std::fabs(static_cast<double>(i) -
                                        static_cast<double>(j)));
    }
  }
  return s;
}

Matrix DenseCorrelation(size_t k, double rho) {
  Matrix s(k, k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) s(i, j) = i == j ? 1.0 : rho;
  }
  return s;
}

/// Half coupled blocks, half free-standing variables: exercises the
/// O(1) singleton closure alongside real block solves.
Matrix MixedCorrelation(size_t k, size_t block, double rho) {
  Matrix s = BlockCorrelation(k, block, rho);
  for (size_t i = k / 2; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      if (i != j) {
        s(i, j) = 0.0;
        s(j, i) = 0.0;
      }
    }
  }
  return s;
}

struct GlassoCase {
  std::string structure;
  size_t k = 0;
  double reference_seconds = 0.0;
  double fast_seconds = 0.0;     ///< fast path (auto solver), 1 thread
  double fast_mt_seconds = 0.0;  ///< fast path, hardware threads
  double cd_seconds = 0.0;       ///< solver forced to coordinate descent
  double max_abs_diff = 0.0;     ///< |theta_fast - theta_reference|
  GlassoStats stats;             ///< from a single-thread fast solve
};

int RunGlassoReport(const bench::Flags& flags) {
  const size_t kmax = flags.GetSize("kmax", 200);
  const size_t reps = flags.GetSize("reps", 3);
  const std::string out_path = flags.GetString("out", "BENCH_glasso.json");

  const std::vector<size_t> sizes = {20, 50, 100, 200};
  const std::vector<std::string> structures = {"block", "banded", "dense",
                                               "mixed"};
  GlassoOptions options;  // defaults: lambda 0.05, tolerance 1e-4

  std::vector<GlassoCase> cases;
  for (size_t k : sizes) {
    if (k > kmax) continue;
    for (const std::string& structure : structures) {
      Matrix s;
      if (structure == "block") {
        s = BlockCorrelation(k, 10, 0.4);
      } else if (structure == "banded") {
        s = BandedCorrelation(k, 0.5);
      } else if (structure == "dense") {
        s = DenseCorrelation(k, 0.3);
      } else {
        s = MixedCorrelation(k, 10, 0.4);
      }

      GlassoCase cell;
      cell.structure = structure;
      cell.k = k;
      cell.reference_seconds = MedianSeconds(reps, [&] {
        auto result = GraphicalLassoReference(s, options);
        benchmark::DoNotOptimize(result);
      });
      GlassoOptions fast_options = options;
      fast_options.threads = 1;
      cell.fast_seconds = MedianSeconds(reps, [&] {
        auto result = GraphicalLasso(s, fast_options);
        benchmark::DoNotOptimize(result);
      });
      GlassoOptions mt_options = options;
      mt_options.threads = 0;  // FDX_THREADS / hardware concurrency
      cell.fast_mt_seconds = MedianSeconds(reps, [&] {
        auto result = GraphicalLasso(s, mt_options);
        benchmark::DoNotOptimize(result);
      });
      GlassoOptions cd_options = fast_options;
      cd_options.solver = GlassoSolver::kCoordinateDescent;
      cell.cd_seconds = MedianSeconds(reps, [&] {
        auto result = GraphicalLasso(s, cd_options);
        benchmark::DoNotOptimize(result);
      });
      // Accuracy cell: both solvers at a tight verification tolerance,
      // so the diff measures solver disagreement rather than how far
      // each stops from the optimum at the default (loose) tolerance.
      // Timing above stays at the default options.
      GlassoOptions verify_options = fast_options;
      verify_options.tolerance = std::min(options.tolerance, 1e-6);
      verify_options.lasso_tolerance =
          std::min(options.lasso_tolerance, 1e-9);
      // The reference is the measuring stick, so it runs an order
      // tighter than the solver under test. Its inner lasso must be
      // tightened along with the sweep tolerance: each sweep's W is
      // only as accurate as the inner solve, and a loose inner floor
      // masquerades as (very slow) outer progress.
      GlassoOptions verify_ref_options = options;
      verify_ref_options.tolerance = 0.1 * verify_options.tolerance;
      verify_ref_options.lasso_tolerance = verify_options.lasso_tolerance;
      verify_ref_options.max_iterations = options.max_iterations * 8;
      auto fast = GraphicalLasso(s, verify_options);
      auto reference = GraphicalLassoReference(s, verify_ref_options);
      if (!fast.ok() || !reference.ok()) {
        std::fprintf(stderr, "glasso bench solve failed: %s\n",
                     (!fast.ok() ? fast : reference).status().ToString().c_str());
        return 1;
      }
      cell.max_abs_diff =
          fast->theta.Subtract(reference->theta).MaxAbs();
      cell.stats = fast->stats;
      cases.push_back(std::move(cell));
    }
  }

  // Warm-start cell: solve the perturbed problem cold vs seeded with the
  // solution of the unperturbed one (the IncrementalFdx::Append pattern).
  const size_t warm_k = std::min<size_t>(kmax, 200);
  const Matrix warm_base = BlockCorrelation(warm_k, 10, 0.4);
  const Matrix warm_next = BlockCorrelation(warm_k, 10, 0.403);
  auto seed_solve = GraphicalLasso(warm_base, options);
  if (!seed_solve.ok()) {
    std::fprintf(stderr, "glasso bench warm seed failed: %s\n",
                 seed_solve.status().ToString().c_str());
    return 1;
  }
  GlassoOptions cold_options = options;
  cold_options.threads = 1;
  const double cold_seconds = MedianSeconds(reps, [&] {
    auto result = GraphicalLasso(warm_next, cold_options);
    benchmark::DoNotOptimize(result);
  });
  GlassoOptions warm_options = cold_options;
  warm_options.warm_w = &seed_solve->w;
  warm_options.warm_theta = &seed_solve->theta;
  const double warm_seconds = MedianSeconds(reps, [&] {
    auto result = GraphicalLasso(warm_next, warm_options);
    benchmark::DoNotOptimize(result);
  });
  auto cold_run = GraphicalLasso(warm_next, cold_options);
  auto warm_run = GraphicalLasso(warm_next, warm_options);
  if (!cold_run.ok() || !warm_run.ok()) {
    std::fprintf(stderr, "glasso bench warm cell failed\n");
    return 1;
  }

  ReportTable table({"Structure", "k", "Reference s", "Fast s", "CD s",
                     "Speedup", "vs CD", "Solver", "NIters", "MaxDiff"});
  for (const GlassoCase& cell : cases) {
    table.AddRow({cell.structure, std::to_string(cell.k),
                  bench::Score3(cell.reference_seconds),
                  bench::Score3(cell.fast_seconds),
                  bench::Score3(cell.cd_seconds),
                  cell.fast_seconds > 0.0
                      ? bench::Score3(cell.reference_seconds /
                                      cell.fast_seconds)
                      : "-",
                  cell.fast_seconds > 0.0
                      ? bench::Score3(cell.cd_seconds / cell.fast_seconds)
                      : "-",
                  cell.stats.SolverBackend(),
                  std::to_string(cell.stats.newton_iterations),
                  bench::Score3(cell.max_abs_diff)});
  }
  std::printf(
      "Graphical-lasso solver scaling (median of %zu reps, hardware "
      "threads: %zu)\n%s"
      "Warm start at k=%zu block: cold %ss, warm %ss (%s sweeps -> %s)\n",
      reps, DefaultThreadCount(), table.ToString().c_str(), warm_k,
      bench::Score3(cold_seconds).c_str(), bench::Score3(warm_seconds).c_str(),
      std::to_string(cold_run->sweeps).c_str(),
      std::to_string(warm_run->sweeps).c_str());

  JsonWriter json;
  json.BeginObject();
  json.Key("bench");
  json.String("glasso_scaling");
  json.Key("reps");
  json.Integer(static_cast<int64_t>(reps));
  json.Key("hardware_threads");
  json.Integer(static_cast<int64_t>(DefaultThreadCount()));
  json.Key("simd_level");
  json.String(SimdLevelName(ActiveSimdLevel()));
  json.Key("lambda");
  json.Number(options.lambda);
  json.Key("diff_tolerance");
  json.Number(std::min(options.tolerance, 1e-6));
  json.Key("cases");
  json.BeginArray();
  for (const GlassoCase& cell : cases) {
    json.BeginObject();
    json.Key("structure");
    json.String(cell.structure);
    json.Key("k");
    json.Integer(static_cast<int64_t>(cell.k));
    json.Key("reference_seconds");
    json.Number(cell.reference_seconds);
    json.Key("fast_seconds");
    json.Number(cell.fast_seconds);
    json.Key("fast_mt_seconds");
    json.Number(cell.fast_mt_seconds);
    json.Key("cd_seconds");
    json.Number(cell.cd_seconds);
    json.Key("speedup");
    json.Number(cell.fast_seconds > 0.0
                    ? cell.reference_seconds / cell.fast_seconds
                    : 0.0);
    json.Key("speedup_mt");
    json.Number(cell.fast_mt_seconds > 0.0
                    ? cell.reference_seconds / cell.fast_mt_seconds
                    : 0.0);
    json.Key("speedup_vs_cd");
    json.Number(cell.fast_seconds > 0.0
                    ? cell.cd_seconds / cell.fast_seconds
                    : 0.0);
    json.Key("max_abs_diff");
    json.Number(cell.max_abs_diff);
    json.Key("solver");
    json.String(cell.stats.SolverBackend());
    json.Key("newton_iterations");
    json.Integer(static_cast<int64_t>(cell.stats.newton_iterations));
    json.Key("newton_path_stages");
    json.Integer(static_cast<int64_t>(cell.stats.newton_path_stages));
    json.Key("components");
    json.Integer(static_cast<int64_t>(cell.stats.components));
    json.Key("singletons");
    json.Integer(static_cast<int64_t>(cell.stats.singletons));
    json.Key("sweeps");
    json.Integer(static_cast<int64_t>(cell.stats.sweeps));
    json.Key("active_hit_rate");
    json.Number(cell.stats.ActiveHitRate());
    json.Key("breakdown");
    json.BeginObject();
    json.Key("screen_seconds");
    json.Number(cell.stats.screen_seconds);
    json.Key("decompose_seconds");
    json.Number(cell.stats.decompose_seconds);
    json.Key("solve_seconds");
    json.Number(cell.stats.solve_seconds);
    json.Key("assemble_seconds");
    json.Number(cell.stats.assemble_seconds);
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();
  json.Key("warm_start");
  json.BeginObject();
  json.Key("structure");
  json.String("block");
  json.Key("k");
  json.Integer(static_cast<int64_t>(warm_k));
  json.Key("cold_seconds");
  json.Number(cold_seconds);
  json.Key("warm_seconds");
  json.Number(warm_seconds);
  json.Key("speedup");
  json.Number(warm_seconds > 0.0 ? cold_seconds / warm_seconds : 0.0);
  json.Key("cold_sweeps");
  json.Integer(static_cast<int64_t>(cold_run->sweeps));
  json.Key("warm_sweeps");
  json.Integer(static_cast<int64_t>(warm_run->sweeps));
  json.Key("warm_start_used");
  json.Bool(warm_run->stats.warm_start_used);
  json.EndObject();
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
  return 0;
}

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

/// One transform-mode cell: which read path, which payload codec. The
/// bounded cache always runs the wave schedule.
struct OocoreModeSpec {
  const char* name;
  StoreIo io;
  bool compressed;
};

constexpr OocoreModeSpec kOocoreModes[] = {
    {"read_wave_raw", StoreIo::kRead, false},
    {"mmap_wave_raw", StoreIo::kMmap, false},
    {"mmap_wave_varint", StoreIo::kMmap, true},
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
  double chunked_transform_seconds = 0.0;  ///< the mmap_wave_raw mode
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

    // Transform legs: every (read path, codec) mode, decoded columns
    // bounded by --cache-mb. The first mode is the reference; every other
    // mode must reproduce its bits exactly.
    Matrix reference_cov;
    for (size_t m = 0; m < kNumOocoreModes; ++m) {
      const OocoreModeSpec& spec = kOocoreModes[m];
      ChunkedTable& mode_store = spec.compressed ? store_varint : store;
      mode_store.set_io_mode(spec.io);
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
      } else {
        cell.modes[m].bit_identical =
            moments->cov.Subtract(reference_cov).MaxAbs() == 0.0;
      }
      if (std::strcmp(spec.name, "mmap_wave_raw") == 0) {
        cell.chunked_transform_seconds = cell.modes[m].transform_seconds;
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
  ReportTable table({"Rows", "Chunks", "Ingest s", "Rows/s", "Read+wave s",
                     "Mmap+wave s", "Wave+varint s", "In-memory s",
                     "Identical", "Peak RSS MB"});
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
         bench::Score3(cell.modes[2].transform_seconds),
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
  if (flags.Has("glasso")) {
    return fdx::RunGlassoReport(flags);
  }
  if (flags.Has("oocore")) {
    return fdx::RunOocoreReport(flags);
  }
  return fdx::RunScalingReport(flags);
}
