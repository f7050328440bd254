#ifndef FDX_CORE_INCREMENTAL_H_
#define FDX_CORE_INCREMENTAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/fdx.h"
#include "core/transform.h"
#include "data/table.h"
#include "util/status.h"

namespace fdx {

/// Incremental FD discovery over a growing relation (the dynamic
/// setting of DynFD, paper §6). The pair-transform moments are additive
/// across *batches*: each appended batch contributes its own
/// sort-and-shift tuple pairs, whose equality indicators accumulate
/// into global co-occurrence counts. A batch rides the bit-packed
/// transform engine end to end (PairTransformCounts): its integer
/// moments come straight out of the popcount kernels, with no per-batch
/// double sample matrix. Re-estimating FDs after an append therefore
/// costs one O(k^2) covariance assembly plus structure learning — no
/// rescan of previous data.
///
/// The batch-local pairing is an approximation of Algorithm 2 run on
/// the union (pairs never span batches); it converges to the same
/// moments as batches grow, and inherits the exact semantics for a
/// single batch.
class IncrementalFdx {
 public:
  explicit IncrementalFdx(Schema schema, FdxOptions options = {});

  const Schema& schema() const { return schema_; }
  const FdxOptions& options() const { return options_; }
  size_t total_rows() const { return total_rows_; }
  size_t total_samples() const { return total_samples_; }
  size_t total_batches() const { return total_batches_; }

  /// Accumulates one batch: TransformBatch, then Merge. The batch must
  /// match the schema width and contain at least two rows (a single row
  /// forms no pair). `options.time_budget_seconds` caps the batch's pair
  /// transform; an expired budget returns Status::Timeout and leaves the
  /// accumulated moments untouched.
  Status Append(const Table& batch);

  /// The first half of Append: the batch's pair-transform moments under
  /// the next batch's seed. Changes nothing, so a caller may persist the
  /// batch between the two halves and, if that fails, drop the moments
  /// and leave the accumulator as it was.
  Result<TransformCounts> TransformBatch(const Table& batch) const;

  /// The second half: folds TransformBatch's moments of a `rows`-row
  /// batch into the accumulator and advances the batch seed. Call it
  /// with no other Merge since the TransformBatch that made `counts`.
  void Merge(const TransformCounts& counts, size_t rows);

  /// Runs structure learning on the accumulated moments and returns the
  /// current FD estimate. Requires at least one appended batch. Honors
  /// `options.time_budget_seconds` across the covariance assembly and
  /// the whole solve, and walks the same recovery ladder as the batch
  /// discoverer (ridge escalation -> sequential fallback -> quarantine),
  /// surfacing what happened in FdxResult::diagnostics.
  Result<FdxResult> CurrentFds() const;

  /// The accumulated covariance (for diagnostics / tests).
  Result<Matrix> CurrentCovariance() const;

  /// Solver-reuse counters (see FdxOptions::reuse_solver_state).
  /// `solves()` counts completed structure-learning solves,
  /// `warm_solves()` the subset that were warm-started from the previous
  /// solution, and `memo_hits()` the CurrentFds() calls answered from
  /// the memoized result without solving at all (no batch appended since
  /// the last solve). Atomics so aggregators may read them without the
  /// owner's lock.
  uint64_t solves() const { return solves_.load(std::memory_order_relaxed); }
  uint64_t warm_solves() const {
    return warm_solves_.load(std::memory_order_relaxed);
  }
  uint64_t memo_hits() const {
    return memo_hits_.load(std::memory_order_relaxed);
  }
  /// Subset of solves() whose winning glasso attempt ran the Newton
  /// backend on at least one component (see GlassoSolver).
  uint64_t newton_solves() const {
    return newton_solves_.load(std::memory_order_relaxed);
  }

  /// Fingerprint of the solve lineage: the batch count at every solve in
  /// the current warm-start chain (a cold solve restarts the chain).
  /// Cache layers append this to content-addressed keys so a payload
  /// produced by a warm-started solve can never alias one produced by a
  /// cold solve of the same data — warm starts are tolerance-equal, not
  /// bit-equal.
  std::string SolveStateKey() const;

  /// The SolveStateKey that CurrentFds() would leave if called now,
  /// where that is known before solving: the current key while the memo
  /// holds, and the one-entry lineage of a cold solve when no warm state
  /// would seed the next solve (a restarted session, say, whose earlier
  /// cold answer a cache may still hold). When a warm start is pending
  /// it is the current key, which no answer of the current batches
  /// carries. Cache lookups key on this, inserts after a solve on either.
  std::string NextSolveStateKey() const;

 private:
  /// True when the next solve starts from the previous one's solution.
  bool SeedsNextSolve() const;

  Schema schema_;
  FdxOptions options_;
  size_t total_rows_ = 0;
  size_t total_samples_ = 0;
  size_t total_batches_ = 0;
  uint64_t next_batch_seed_ = 0;
  std::vector<uint64_t> ones_;       ///< per-column indicator sums
  std::vector<uint64_t> co_counts_;  ///< upper-triangular co-occurrences

  // Solver state chained across CurrentFds() calls. Mutable: CurrentFds
  // is logically const (it never changes the accumulated moments), and
  // callers already serialize access the way they must for Append().
  mutable Matrix warm_w_;      ///< previous solve's W (normalized scale)
  mutable Matrix warm_theta_;  ///< previous solve's Theta
  mutable bool has_warm_ = false;
  mutable std::unique_ptr<FdxResult> memo_;  ///< last result, if current
  mutable size_t memo_batches_ = 0;
  mutable std::vector<uint64_t> lineage_;    ///< batch count at each solve
  mutable std::atomic<uint64_t> solves_{0};
  mutable std::atomic<uint64_t> warm_solves_{0};
  mutable std::atomic<uint64_t> memo_hits_{0};
  mutable std::atomic<uint64_t> newton_solves_{0};
};

}  // namespace fdx

#endif  // FDX_CORE_INCREMENTAL_H_
