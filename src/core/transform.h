#ifndef FDX_CORE_TRANSFORM_H_
#define FDX_CORE_TRANSFORM_H_

#include <cstdint>
#include <vector>

#include "data/table.h"
#include "linalg/matrix.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace fdx {

/// Options of the pair-difference transform (paper Algorithm 2).
struct TransformOptions {
  /// Cap on the number of tuple pairs contributed by each attribute's
  /// sort-and-shift pass. 0 means no cap (the paper's exact Algorithm 2,
  /// n pairs per attribute). The paper notes sampling can speed up this
  /// step (§5.4); a cap keeps the transform linear in min(n, cap) * k.
  size_t max_pairs_per_attribute = 0;
  /// Pool the covariance *within* each sort pass instead of across the
  /// concatenated sample. Algorithm 2's concatenation mixes passes with
  /// different indicator means (the pass's own sort column is almost
  /// always 1), which injects a uniform negative coupling between
  /// unrelated attributes; the pooled estimator
  ///   S = (1/k) * sum_i Cov(pass_i)
  /// removes that artifact at the source. Off by default to stay
  /// faithful to the paper's algorithm (the FD generation step filters
  /// the artifact by sign instead).
  bool pooled_covariance = false;
  uint64_t seed = 7;
  /// Worker threads for the per-attribute passes; 0 picks the `FDX_THREADS`
  /// environment variable or the hardware concurrency. The transform is
  /// bit-identical at every thread count: each attribute derives its own
  /// RNG from a per-attribute fork of `seed`, integer moment counts merge
  /// commutatively, and pooled pass covariances are reduced in attribute
  /// order.
  size_t threads = 0;
  /// Optional wall-clock budget, polled between per-attribute passes (so
  /// a run is over budget by at most one pass). Non-owning; expiry makes
  /// the transform return Status::Timeout.
  const Deadline* deadline = nullptr;
};

/// The packed transform engine. Samples of the pair transform are
/// equality indicators Z_A = 1(t_i[A] = t_j[A]) — binary — so the
/// engine never touches a double on the hot path:
///
///   1. each attribute pass sorts rows with a stable counting sort on
///      the dictionary codes (O(n + cardinality), shuffle preserved as
///      the tie breaker; see core/pairs.h);
///   2. pairs are enumerated straight off the sorted order and their
///      equality vectors packed into uint64 words (one bit per sample
///      and column, column-major; see linalg/bitmatrix.h);
///   3. moments come out of the words by popcount — counts[x] =
///      popcount(col_x), co_counts[x][y] = popcount(col_x AND col_y) —
///      all-integer, hence bit-identical at any thread count.
///
/// The entry points below stream pass by pass: a pass's bits live only
/// until its moments are counted, and the (n * k) x k sample matrix is
/// never materialized.

/// Raw integer moments of the transform: per-column indicator sums and
/// upper-triangular co-occurrence counts (y >= x at [x * k + y],
/// diagonal = counts). These are additive across batches — the currency
/// of IncrementalFdx — and exact, so merging partial counts in any
/// order reproduces the serial accumulation bitwise.
struct TransformCounts {
  std::vector<uint64_t> counts;     ///< per-column ones
  std::vector<uint64_t> co_counts;  ///< k * k, upper triangle + diagonal
  size_t num_samples = 0;
};
Result<TransformCounts> PairTransformCounts(
    const Table& table, const TransformOptions& options = {});

/// Mean vector and covariance of the transform's samples. Equality
/// indicators are binary, so the cross-moment matrix is an integer
/// co-occurrence count; this keeps the computation exact. This is the
/// production path of FdxDiscoverer.
struct TransformedMoments {
  Vector mean;    ///< Column means of the implicit sample matrix.
  Matrix cov;     ///< Empirical covariance (1/N normalization).
  size_t num_samples = 0;
};
Result<TransformedMoments> PairTransformMoments(
    const Table& table, const TransformOptions& options = {});

/// Same over an already encoded table (the CSV reader's output); the
/// Table overload is exactly this on EncodedTable::Encode(table).
Result<TransformedMoments> PairTransformMoments(
    const EncodedTable& table, const TransformOptions& options = {});

}  // namespace fdx

#endif  // FDX_CORE_TRANSFORM_H_
