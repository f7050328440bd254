// Bitwise equivalence of the out-of-core path against the in-memory
// engine: for every chunk size, thread count, cache budget, and input
// quirk (nulls, heavy ties, headerless CSV, sampled pairs), streaming
// moments and DiscoverFromStore must reproduce the in-memory results
// exactly — same doubles, same FDs, same matrices. Equality here is
// operator== on doubles, i.e. bit-identity of the computed values.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include "core/fdx.h"
#include "core/transform.h"
#include "data/csv.h"
#include "data/table.h"
#include "store/chunked_table.h"
#include "store/store_discover.h"
#include "store/stream_transform.h"
#include "util/file_io.h"

namespace fdx {
namespace {

const size_t kChunkSizes[] = {1, 7, 1000, 65536};
const size_t kThreadCounts[] = {1, 2, 8};

/// zip is determined by city; state has ties and nulls; noise breaks a
/// few pairs so the run exercises real (non-trivial) structure.
Table FdTable(size_t rows) {
  Table table{Schema({"city", "state", "zip", "noise"})};
  for (size_t r = 0; r < rows; ++r) {
    const size_t city = r % 23;
    std::vector<Value> row(4);
    row[0] = Value(static_cast<int64_t>(city));
    row[1] = r % 19 == 0 ? Value::Null()
                         : Value("st" + std::to_string(city % 5));
    row[2] = Value(static_cast<int64_t>(city * 100 + (r % 97 == 0 ? 1 : 0)));
    row[3] = Value(static_cast<int64_t>((r * 2654435761u) % 13));
    table.AppendRow(std::move(row));
  }
  return table;
}

void AppendInChunks(const Table& table, size_t chunk_rows,
                    ChunkedTable* store) {
  for (size_t lo = 0; lo < table.num_rows(); lo += chunk_rows) {
    const size_t hi = std::min(table.num_rows(), lo + chunk_rows);
    Table batch{table.schema()};
    std::vector<Value> row(table.num_columns());
    for (size_t r = lo; r < hi; ++r) {
      for (size_t c = 0; c < table.num_columns(); ++c) {
        row[c] = table.cell(r, c);
      }
      batch.AppendRow(row);
    }
    ASSERT_TRUE(store->AppendBatch(batch).ok());
  }
}

void ExpectMatrixIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) {
      EXPECT_EQ(a(i, j), b(i, j)) << "(" << i << "," << j << ")";
    }
  }
}

void ExpectMomentsIdentical(const TransformedMoments& memory,
                            const TransformedMoments& stream) {
  EXPECT_EQ(memory.num_samples, stream.num_samples);
  ASSERT_EQ(memory.mean.size(), stream.mean.size());
  for (size_t i = 0; i < memory.mean.size(); ++i) {
    EXPECT_EQ(memory.mean[i], stream.mean[i]) << "mean[" << i << "]";
  }
  ExpectMatrixIdentical(memory.cov, stream.cov);
}

TEST(StoreEquivalenceTest, MomentsIdenticalAcrossChunkAndThreadGrid) {
  const Table table = FdTable(600);
  for (size_t threads : kThreadCounts) {
    TransformOptions transform;
    transform.threads = threads;
    auto memory = PairTransformMoments(table, transform);
    ASSERT_TRUE(memory.ok());
    for (size_t chunk_rows : kChunkSizes) {
      auto store = ChunkedTable::Create(table.schema(), "");
      ASSERT_TRUE(store.ok());
      AppendInChunks(table, chunk_rows, &store.value());
      StreamTransformOptions stream;
      stream.transform = transform;
      auto streamed = StreamTransformMoments(store.value(), stream);
      ASSERT_TRUE(streamed.ok())
          << chunk_rows << "x" << threads << ": "
          << streamed.status().message();
      ExpectMomentsIdentical(memory.value(), streamed.value());
    }
  }
}

TEST(StoreEquivalenceTest, BoundedCacheDoesNotChangeResults) {
  const Table table = FdTable(400);
  auto memory = PairTransformMoments(table, {});
  ASSERT_TRUE(memory.ok());
  auto store = ChunkedTable::Create(table.schema(), "");
  ASSERT_TRUE(store.ok());
  AppendInChunks(table, 57, &store.value());
  // A 2-column cache leaves no room beyond the two streamed columns, so
  // every wave holds a single pass and each column is re-read per pass.
  StreamTransformOptions stream;
  stream.column_cache_bytes = 2 * 400 * sizeof(int32_t);
  auto streamed = StreamTransformMoments(store.value(), stream);
  ASSERT_TRUE(streamed.ok());
  ExpectMomentsIdentical(memory.value(), streamed.value());
}

TEST(StoreEquivalenceTest, IoModeAndCodecGridIdentical) {
  // The full storage matrix: raw vs varint payloads crossed with mmap
  // vs pread reads, at degenerate and huge chunk sizes, every cell
  // bit-identical to the in-memory transform.
  const Table table = FdTable(300);
  auto memory = PairTransformMoments(table, {});
  ASSERT_TRUE(memory.ok());
  const std::string base =
      ::testing::TempDir() + "fdx_store_equiv_iogrid";
  for (size_t chunk_rows : {size_t{1}, size_t{7}, size_t{65536}}) {
    for (const char* codec : {"", "varint"}) {
      const std::string dir = base + "_" + std::to_string(chunk_rows) +
                              (codec[0] == '\0' ? "_raw" : "_varint");
      (void)RemoveDirectoryRecursive(dir);
      {
        auto store = ChunkedTable::Create(table.schema(), dir, codec);
        ASSERT_TRUE(store.ok());
        AppendInChunks(table, chunk_rows, &store.value());
      }
      for (StoreIo io : {StoreIo::kMmap, StoreIo::kRead}) {
        auto store = ChunkedTable::Open(dir);
        ASSERT_TRUE(store.ok()) << store.status().message();
        store.value().set_io_mode(io);
        auto streamed = StreamTransformMoments(store.value(), {});
        ASSERT_TRUE(streamed.ok())
            << chunk_rows << "/" << codec << "/"
            << (io == StoreIo::kMmap ? "mmap" : "read") << ": "
            << streamed.status().message();
        ExpectMomentsIdentical(memory.value(), streamed.value());
      }
      ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
    }
  }
}

/// FdTable's four columns cycled out to width k (a repeated column is an
/// exact FD on its twin).
Table TableOfWidth(size_t rows, size_t k) {
  const Table base = FdTable(rows);
  std::vector<std::string> names;
  for (size_t c = 0; c < k; ++c) names.push_back("c" + std::to_string(c));
  Table table{Schema(names)};
  std::vector<Value> row(k);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < k; ++c) {
      row[c] = base.cell(r, c % base.num_columns());
    }
    table.AppendRow(row);
  }
  return table;
}

TEST(StoreEquivalenceTest, ResidencyBoundaryGridIdentical) {
  // A column cache of exactly n*k*4 bytes holds every decoded column, so
  // the passes run resident; one byte less runs the wave schedule (at
  // k = 5, several waves). Both sides must match the in-memory transform
  // bit for bit at every thread count, including k <= 2, where a budget
  // short of the full column set must still take the wave path.
  const size_t rows = 400;
  for (size_t k : {size_t{1}, size_t{2}, size_t{5}}) {
    const Table table = TableOfWidth(rows, k);
    auto store = ChunkedTable::Create(table.schema(), "");
    ASSERT_TRUE(store.ok());
    AppendInChunks(table, 57, &store.value());
    const uint64_t resident = rows * k * sizeof(int32_t);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      TransformOptions transform;
      transform.threads = threads;
      auto memory = PairTransformMoments(table, transform);
      ASSERT_TRUE(memory.ok());
      for (uint64_t budget : {resident, resident - 1}) {
        StreamTransformOptions stream;
        stream.transform = transform;
        stream.column_cache_bytes = budget;
        auto streamed = StreamTransformMoments(store.value(), stream);
        ASSERT_TRUE(streamed.ok())
            << k << "x" << threads << "@" << budget << ": "
            << streamed.status().message();
        ExpectMomentsIdentical(memory.value(), streamed.value());
      }
    }
  }
}

/// Column-cache budgets that select each schedule for an n-row FdTable
/// store: unbounded (resident) and three of its four columns (waves).
std::vector<uint64_t> ScheduleBudgets(size_t n) {
  return {0, 3 * n * sizeof(int32_t)};
}

TEST(StoreEquivalenceTest, ExpiredDeadlineTimesOutOnEverySchedule) {
  const Table table = FdTable(400);
  const Deadline expired(1e-9);
  while (!expired.Expired()) {
  }
  TransformOptions transform;
  transform.deadline = &expired;
  auto memory = PairTransformMoments(table, transform);
  ASSERT_EQ(memory.status().code(), StatusCode::kTimeout);
  EXPECT_EQ(memory.status().message(),
            "pair transform: time budget exhausted");
  auto store = ChunkedTable::Create(table.schema(), "");
  ASSERT_TRUE(store.ok());
  AppendInChunks(table, 57, &store.value());
  for (uint64_t budget : ScheduleBudgets(table.num_rows())) {
    StreamTransformOptions stream;
    stream.transform = transform;
    stream.column_cache_bytes = budget;
    auto streamed = StreamTransformMoments(store.value(), stream);
    ASSERT_EQ(streamed.status().code(), StatusCode::kTimeout) << budget;
    EXPECT_EQ(streamed.status().message(), memory.status().message())
        << budget;
  }
}

TEST(StoreEquivalenceTest, RssCeilingBreachIsUnavailableOnEverySchedule) {
  const Table table = FdTable(400);
  auto store = ChunkedTable::Create(table.schema(), "");
  ASSERT_TRUE(store.ok());
  AppendInChunks(table, 57, &store.value());
  for (uint64_t budget : ScheduleBudgets(table.num_rows())) {
    StreamTransformOptions stream;
    stream.column_cache_bytes = budget;
    stream.rss_limit_bytes = 1;
    auto streamed = StreamTransformMoments(store.value(), stream);
    EXPECT_EQ(streamed.status().code(), StatusCode::kUnavailable)
        << budget << ": " << streamed.status().message();
  }
}

TEST(StoreEquivalenceTest, SampledPairsIdenticalAcrossChunking) {
  const Table table = FdTable(500);
  TransformOptions transform;
  transform.max_pairs_per_attribute = 64;
  auto memory = PairTransformMoments(table, transform);
  ASSERT_TRUE(memory.ok());
  for (size_t chunk_rows : kChunkSizes) {
    auto store = ChunkedTable::Create(table.schema(), "");
    ASSERT_TRUE(store.ok());
    AppendInChunks(table, chunk_rows, &store.value());
    StreamTransformOptions stream;
    stream.transform = transform;
    auto streamed = StreamTransformMoments(store.value(), stream);
    ASSERT_TRUE(streamed.ok());
    ExpectMomentsIdentical(memory.value(), streamed.value());
  }
}

TEST(StoreEquivalenceTest, PooledCovarianceIdentical) {
  const Table table = FdTable(300);
  TransformOptions transform;
  transform.pooled_covariance = true;
  auto memory = PairTransformMoments(table, transform);
  ASSERT_TRUE(memory.ok());
  auto store = ChunkedTable::Create(table.schema(), "");
  ASSERT_TRUE(store.ok());
  AppendInChunks(table, 7, &store.value());
  StreamTransformOptions stream;
  stream.transform = transform;
  auto streamed = StreamTransformMoments(store.value(), stream);
  ASSERT_TRUE(streamed.ok());
  ExpectMomentsIdentical(memory.value(), streamed.value());
}

void ExpectResultsIdentical(const FdxResult& memory, const FdxResult& store) {
  EXPECT_EQ(memory.fds, store.fds);
  EXPECT_EQ(memory.ordering, store.ordering);
  EXPECT_EQ(memory.transform_samples, store.transform_samples);
  ExpectMatrixIdentical(memory.theta, store.theta);
  ExpectMatrixIdentical(memory.autoregression, store.autoregression);
}

TEST(StoreEquivalenceTest, DiscoverIdenticalAcrossGrid) {
  const Table table = FdTable(600);
  for (size_t threads : kThreadCounts) {
    FdxOptions options;
    options.threads = threads;
    const FdxDiscoverer discoverer(options);
    auto memory = discoverer.Discover(table);
    ASSERT_TRUE(memory.ok());
    EXPECT_FALSE(memory.value().fds.empty());
    for (size_t chunk_rows : kChunkSizes) {
      auto store = ChunkedTable::Create(table.schema(), "");
      ASSERT_TRUE(store.ok());
      AppendInChunks(table, chunk_rows, &store.value());
      StoreDiscoverOptions store_options;
      store_options.fdx = options;
      auto streamed = DiscoverFromStore(store.value(), store_options);
      ASSERT_TRUE(streamed.ok())
          << chunk_rows << "x" << threads << ": "
          << streamed.status().message();
      ExpectResultsIdentical(memory.value(), streamed.value());
    }
  }
}

TEST(StoreEquivalenceTest, SpilledStoreDiscoverIdentical) {
  const std::string dir =
      ::testing::TempDir() + "fdx_store_equiv_spilled";
  (void)RemoveDirectoryRecursive(dir);
  const Table table = FdTable(500);
  const FdxDiscoverer discoverer{FdxOptions{}};
  auto memory = discoverer.Discover(table);
  ASSERT_TRUE(memory.ok());
  {
    auto store = ChunkedTable::Create(table.schema(), dir);
    ASSERT_TRUE(store.ok());
    AppendInChunks(table, 123, &store.value());
  }
  auto reopened = ChunkedTable::Open(dir);
  ASSERT_TRUE(reopened.ok());
  StoreDiscoverOptions store_options;
  store_options.column_cache_bytes = 2 * 500 * sizeof(int32_t);
  auto streamed = DiscoverFromStore(reopened.value(), store_options);
  ASSERT_TRUE(streamed.ok());
  ExpectResultsIdentical(memory.value(), streamed.value());
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

TEST(StoreEquivalenceTest, CompressedSpilledBoundedDiscoverIdentical) {
  // The whole out-of-core stack at once: varint-compressed spilled
  // store, reopened, bounded cache (wave schedule), multiple threads —
  // end-to-end DiscoverFromStore must equal the in-memory Discover.
  const std::string dir =
      ::testing::TempDir() + "fdx_store_equiv_compressed";
  (void)RemoveDirectoryRecursive(dir);
  const Table table = FdTable(500);
  FdxOptions options;
  options.threads = 8;
  const FdxDiscoverer discoverer(options);
  auto memory = discoverer.Discover(table);
  ASSERT_TRUE(memory.ok());
  {
    auto store = ChunkedTable::Create(table.schema(), dir, "varint");
    ASSERT_TRUE(store.ok());
    AppendInChunks(table, 123, &store.value());
  }
  auto reopened = ChunkedTable::Open(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ(reopened.value().codec(), "varint");
  StoreDiscoverOptions store_options;
  store_options.fdx = options;
  store_options.column_cache_bytes = 3 * 500 * sizeof(int32_t);
  auto streamed = DiscoverFromStore(reopened.value(), store_options);
  ASSERT_TRUE(streamed.ok()) << streamed.status().message();
  ExpectResultsIdentical(memory.value(), streamed.value());
  ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
}

TEST(StoreEquivalenceTest, HeaderlessCsvAppendIdentical) {
  // Headerless ingest: synthesized col<i> names, chunked at a boundary
  // that splits mid-dictionary-growth.
  std::string csv;
  for (int r = 0; r < 120; ++r) {
    csv += std::to_string(r % 9) + "," + std::to_string((r % 9) * 10) + "," +
           (r % 13 == 0 ? "NULL" : std::to_string(r % 4)) + "\n";
  }
  CsvOptions options;
  options.has_header = false;
  auto whole = ReadCsvFromString(csv, options);
  ASSERT_TRUE(whole.ok());
  const FdxDiscoverer discoverer{FdxOptions{}};
  auto memory = discoverer.Discover(whole.value());
  ASSERT_TRUE(memory.ok());

  ChunkedTable store;
  bool created = false;
  const Status read = ReadCsvChunkedFromString(
      csv, options, /*chunk_rows=*/7, [&](Table&& chunk) -> Status {
        if (!created) {
          FDX_ASSIGN_OR_RETURN(store, ChunkedTable::Create(chunk.schema(), ""));
          created = true;
        }
        if (chunk.num_rows() == 0) return Status::OK();
        return store.AppendBatch(chunk);
      });
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(created);
  auto streamed = DiscoverFromStore(store, {});
  ASSERT_TRUE(streamed.ok());
  ExpectResultsIdentical(memory.value(), streamed.value());
}

TEST(StoreEquivalenceTest, DegenerateShapesMatchInMemoryBehaviour) {
  // Single row / single column: Discover returns the empty diagnosed
  // result; DiscoverFromStore must do the same.
  Table one_row{Schema({"a", "b"})};
  one_row.AppendRow({Value(int64_t{1}), Value(int64_t{2})});
  auto store = ChunkedTable::Create(one_row.schema(), "");
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store.value().AppendBatch(one_row).ok());
  const FdxDiscoverer discoverer{FdxOptions{}};
  auto memory = discoverer.Discover(one_row);
  auto streamed = DiscoverFromStore(store.value(), {});
  ASSERT_TRUE(memory.ok());
  ASSERT_TRUE(streamed.ok());
  EXPECT_TRUE(streamed.value().fds.empty());
  ASSERT_EQ(streamed.value().diagnostics.events.size(), 1u);
  EXPECT_EQ(streamed.value().diagnostics.events[0].detail,
            memory.value().diagnostics.events[0].detail);
}

}  // namespace
}  // namespace fdx
