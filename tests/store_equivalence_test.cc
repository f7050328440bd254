// Bitwise equivalence of the out-of-core path against the in-memory
// engine: for every chunk size, thread count, cache budget, and input
// quirk (nulls, heavy ties, headerless CSV, sampled pairs), streaming
// moments and DiscoverFromStore must reproduce the in-memory results
// exactly — same doubles, same FDs, same matrices. Equality here is
// operator== on doubles, i.e. bit-identity of the computed values.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>
#include "core/fdx.h"
#include "core/transform.h"
#include "data/code_column.h"
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

/// A budget of `columns` decoded columns of `store` at its widest code
/// width (data/code_column.h): short of the full column set, it forces
/// the wave schedule.
uint64_t ColumnBudget(const ChunkedTable& store, size_t columns) {
  unsigned widest = 1;
  for (size_t c = 0; c < store.num_columns(); ++c) {
    widest = std::max(widest, CodeWidthFor(store.Cardinality(c)));
  }
  return columns * store.num_rows() * widest;
}

/// Stream options with `budget`, asserted (through the predicate the
/// transform itself uses) to select the schedule the caller expects.
StreamTransformOptions WithBudget(const ChunkedTable& store, uint64_t budget,
                                  bool resident) {
  StreamTransformOptions stream;
  stream.column_cache_bytes = budget;
  EXPECT_EQ(TransformRunsResident(store, stream), resident)
      << "budget " << budget << " of " << DecodedColumnBytes(store);
  return stream;
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
  const StreamTransformOptions stream = WithBudget(
      store.value(), ColumnBudget(store.value(), 2), /*resident=*/false);
  auto streamed = StreamTransformMoments(store.value(), stream);
  ASSERT_TRUE(streamed.ok());
  ExpectMomentsIdentical(memory.value(), streamed.value());
}

TEST(StoreEquivalenceTest, IoModeAndCodecGridIdentical) {
  // The storage matrix: raw vs varint payloads at degenerate and huge
  // chunk sizes, every cell bit-identical to the in-memory transform.
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
      auto store = ChunkedTable::Open(dir);
      ASSERT_TRUE(store.ok()) << store.status().message();
      auto streamed = StreamTransformMoments(store.value(), {});
      ASSERT_TRUE(streamed.ok()) << chunk_rows << "/" << codec << ": "
                                 << streamed.status().message();
      ExpectMomentsIdentical(memory.value(), streamed.value());
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
  // A column cache of exactly the decoded column bytes (n*k at one byte
  // per code here) holds every decoded column, so the passes run
  // resident; one byte less runs the wave schedule (at k = 5, several
  // waves). Both sides must match the in-memory transform
  // bit for bit at every thread count, including k <= 2, where a budget
  // short of the full column set must still take the wave path.
  const size_t rows = 400;
  for (size_t k : {size_t{1}, size_t{2}, size_t{5}}) {
    const Table table = TableOfWidth(rows, k);
    auto store = ChunkedTable::Create(table.schema(), "");
    ASSERT_TRUE(store.ok());
    AppendInChunks(table, 57, &store.value());
    const uint64_t resident = DecodedColumnBytes(store.value());
    for (size_t threads : {size_t{1}, size_t{4}}) {
      TransformOptions transform;
      transform.threads = threads;
      auto memory = PairTransformMoments(table, transform);
      ASSERT_TRUE(memory.ok());
      for (uint64_t budget : {resident, resident - 1}) {
        StreamTransformOptions stream =
            WithBudget(store.value(), budget, budget == resident);
        stream.transform = transform;
        auto streamed = StreamTransformMoments(store.value(), stream);
        ASSERT_TRUE(streamed.ok())
            << k << "x" << threads << "@" << budget << ": "
            << streamed.status().message();
        ExpectMomentsIdentical(memory.value(), streamed.value());
      }
    }
  }
}

/// Column-cache budgets that select each schedule for an FdTable store:
/// unbounded (resident) and three of its four columns (waves).
std::vector<uint64_t> ScheduleBudgets(const ChunkedTable& store) {
  const std::vector<uint64_t> budgets = {0, ColumnBudget(store, 3)};
  WithBudget(store, budgets[0], /*resident=*/true);
  WithBudget(store, budgets[1], /*resident=*/false);
  return budgets;
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
  for (uint64_t budget : ScheduleBudgets(store.value())) {
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
  for (uint64_t budget : ScheduleBudgets(store.value())) {
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
  store_options.column_cache_bytes = ColumnBudget(reopened.value(), 2);
  WithBudget(reopened.value(), store_options.column_cache_bytes,
             /*resident=*/false);
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
  store_options.column_cache_bytes = ColumnBudget(reopened.value(), 3);
  WithBudget(reopened.value(), store_options.column_cache_bytes,
             /*resident=*/false);
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

/// Columns at the code-width boundaries for `boundary` = 255 or 65535
/// (the largest cardinality a 1- or 2-byte code holds):
///   at:       exactly `boundary` distinct values (narrow width);
///   past:     boundary + 1 (the next width);
///   nulls:    `boundary` values plus nulls (still narrow);
///   nans:     boundary - 1 ints plus NaN and -NaN: one transform code
///             (`boundary`, narrow) but two storage codes, so chunk
///             payloads take the next width while decoded codes do not;
///   crossing: fewer than `boundary` values in the first `split` rows,
///             more after, so later chunks are written wider than
///             earlier ones and the earlier ones are widened on read.
Table WidthBoundaryTable(size_t boundary, size_t rows, size_t split) {
  Table table{Schema({"at", "past", "nulls", "nans", "crossing"})};
  const size_t period = boundary + 1;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t r = 0; r < rows; ++r) {
    const size_t v = r % period;
    std::vector<Value> row(5);
    row[0] = Value(static_cast<int64_t>(r % boundary));
    row[1] = Value(static_cast<int64_t>(v));
    row[2] = v == boundary ? Value::Null() : Value(static_cast<int64_t>(v));
    row[3] = v == boundary       ? Value(-nan)
             : v == boundary - 1 ? Value(nan)
                                 : Value(static_cast<int64_t>(v));
    const size_t early = boundary - 100;
    row[4] = Value(static_cast<int64_t>(r < split ? r % early
                                                  : early + (r - split)));
    table.AppendRow(std::move(row));
  }
  return table;
}

/// (boundary, chunk_rows): one ctest per cell of the width grid.
class WidthBoundaryTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(WidthBoundaryTest, GridIdentical) {
  // Every storage and schedule combination over columns at and across
  // the 1/2- and 2/4-byte code boundaries must reproduce the in-memory
  // moments bit for bit. A one-row-per-chunk spilled store of the
  // 65,535 table would rewrite its manifest ~66,000 times, so that cell
  // runs on an in-memory store.
  const auto [boundary, chunk_rows] = GetParam();
  const size_t rows = boundary == 255 ? 400 : 65736;
  const size_t split = boundary == 255 ? 260 : 65536;
  const Table table = WidthBoundaryTable(boundary, rows, split);
  const EncodedTable encoded = EncodedTable::Encode(table);
  const unsigned narrow = CodeWidthFor(boundary);
  ASSERT_EQ(CodeWidthFor(encoded.Cardinality(0)), narrow);
  ASSERT_EQ(CodeWidthFor(encoded.Cardinality(1)), 2 * narrow);
  ASSERT_EQ(CodeWidthFor(encoded.Cardinality(2)), narrow);
  ASSERT_EQ(CodeWidthFor(encoded.Cardinality(3)), narrow);
  ASSERT_EQ(CodeWidthFor(encoded.Cardinality(4)), 2 * narrow);
  std::vector<TransformedMoments> memory;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    TransformOptions transform;
    transform.threads = threads;
    auto moments = PairTransformMoments(table, transform);
    ASSERT_TRUE(moments.ok());
    memory.push_back(std::move(moments).value());
  }
  const bool spill = chunk_rows * 1000 >= rows;
  for (const char* codec : {"", "varint"}) {
    if (!spill && codec[0] != '\0') continue;
    const std::string dir =
        spill ? ::testing::TempDir() + "fdx_store_equiv_width_" +
                    std::to_string(::getpid()) + "_" +
                    std::to_string(boundary) + "_" +
                    std::to_string(chunk_rows) +
                    (codec[0] == '\0' ? "_raw" : "_varint")
              : "";
    if (spill) (void)RemoveDirectoryRecursive(dir);
    auto written = ChunkedTable::Create(table.schema(), dir, codec);
    ASSERT_TRUE(written.ok());
    AppendInChunks(table, chunk_rows, &written.value());
    auto reopened = spill ? ChunkedTable::Open(dir)
                          : Result<ChunkedTable>(std::move(written));
    ASSERT_TRUE(reopened.ok()) << reopened.status().message();
    const ChunkedTable& store = reopened.value();
    for (size_t t = 0; t < 2; ++t) {
      for (bool resident : {true, false}) {
        SCOPED_TRACE(std::string("codec=") + codec +
                     " threads=" + std::to_string(t == 0 ? 1 : 4) +
                     (resident ? " resident" : " waves"));
        const uint64_t budget = resident ? 0 : DecodedColumnBytes(store) - 1;
        StreamTransformOptions stream = WithBudget(store, budget, resident);
        stream.transform.threads = t == 0 ? 1 : 4;
        auto streamed = StreamTransformMoments(store, stream);
        ASSERT_TRUE(streamed.ok()) << streamed.status().message();
        ExpectMomentsIdentical(memory[t], streamed.value());
      }
    }
    if (spill) {
      ASSERT_TRUE(RemoveDirectoryRecursive(dir).ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, WidthBoundaryTest,
    ::testing::Combine(::testing::Values(size_t{255}, size_t{65535}),
                       ::testing::Values(size_t{1}, size_t{97},
                                         size_t{65536})));

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
