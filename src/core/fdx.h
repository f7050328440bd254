#ifndef FDX_CORE_FDX_H_
#define FDX_CORE_FDX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/ordering.h"
#include "core/transform.h"
#include "data/table.h"
#include "fd/fd.h"
#include "linalg/glasso.h"
#include "linalg/matrix.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace fdx {

/// Which sparse structure-learning engine produces the autoregression
/// matrix B.
enum class StructureEstimator {
  /// Graphical lasso + U D U^T factorization (paper Algorithm 1).
  kGraphicalLasso,
  /// Sequential lasso regressions: under the chosen variable order,
  /// each Z_j is lasso-regressed on its predecessors, giving B's j-th
  /// column directly. This is the neighborhood-selection view of
  /// structure learning (Meinshausen & Buehlmann 2006, the paper's
  /// reference [32]) specialized to the triangular SEM, and the most
  /// literal reading of the title's "sparse regression".
  kSequentialLasso,
};

/// How Discover() salvages a run when structure learning hits a
/// numerical failure (a diverging glasso sweep, a non-positive U D U^T
/// pivot). The escalation ladder, in order:
///   1. retry graphical lasso with a diagonal ridge grown by
///      `ridge_multiplier` per attempt (up to `max_ridge`);
///   2. fall back from kGraphicalLasso to kSequentialLasso;
///   3. quarantine degenerate attributes (near-constant / all-null
///      equality indicators) and re-run on the remainder.
/// Every step taken is recorded in FdxResult::diagnostics. Timeouts and
/// invalid inputs are never retried — only kNumericalError escalates.
struct RecoveryPolicy {
  /// Master switch; disabled reproduces the historical fail-fast
  /// behaviour (first numerical error aborts the run).
  bool enabled = true;
  /// Ridge retries after the initial attempt (so N+1 glasso attempts).
  size_t max_ridge_retries = 3;
  /// Growth factor of the diagonal ridge between attempts.
  double ridge_multiplier = 10.0;
  /// Hard cap on the escalated ridge; retries stop once it is reached.
  double max_ridge = 1e-2;
  /// Allow step 2 (estimator fallback to sequential lasso).
  bool allow_estimator_fallback = true;
  /// Allow step 3 (quarantine degenerate attributes and re-run).
  bool allow_quarantine = true;
  /// Indicator-variance floor below which an attribute counts as
  /// degenerate for the up-front scan and the quarantine step.
  double degenerate_variance_floor = 1e-9;
};

/// One recovery action taken while salvaging a failing run.
struct RecoveryEvent {
  std::string stage;   ///< "input", "glasso", "seqlasso", "quarantine"
  std::string action;  ///< e.g. "retry_ridge", "fallback_sequential"
  std::string detail;  ///< human-readable context (error text, ridge)
};

/// Execution record of one Discover() run: what failed, what the
/// recovery ladder did about it, and how long each stage took. Surfaced
/// through eval/report rendering, the CLI's JSON output, and tests.
struct RunDiagnostics {
  /// Graphical-lasso attempts, including ridge retries (0 when the
  /// sequential estimator was configured directly).
  size_t glasso_attempts = 0;
  /// Diagonal ridge of the successful glasso attempt (0 if none won).
  double ridge_used = 0.0;
  /// True when the run fell back from glasso to sequential lasso.
  bool fallback_sequential = false;
  /// True when degenerate attributes were quarantined and the run was
  /// re-learned on the remainder.
  bool quarantined = false;
  /// Schema indices of quarantined attributes (empty rows/columns in the
  /// returned matrices; they never participate in FDs).
  std::vector<size_t> quarantined_attributes;
  /// Ordered log of every recovery step taken.
  std::vector<RecoveryEvent> events;
  /// Stage timings (mirrors of the FdxResult fields, kept here so the
  /// diagnostics block is self-contained when serialized).
  double transform_seconds = 0.0;
  double learning_seconds = 0.0;

  /// Solver internals of the winning graphical-lasso attempt (all zero /
  /// empty when sequential lasso produced the result or the run was
  /// quarantined). `solver_components > 0` marks the block populated.
  size_t solver_components = 0;
  std::vector<size_t> solver_component_sizes;
  size_t solver_sweeps = 0;
  double solver_final_change = 0.0;
  /// Fraction of inner-lasso passes served by the active set.
  double solver_active_hit_rate = 0.0;
  /// True when the winning attempt was seeded from a previous solve.
  bool solver_warm_start = false;
  /// Backend(s) the per-component dispatch actually ran: "cd", "newton",
  /// or "cd+newton" (empty when the solver block is unpopulated).
  std::string solver_backend;
  /// Newton work counters, zero on pure-CD runs: outer Newton iterations
  /// summed over dense blocks and lambda-path continuation stages run.
  size_t solver_newton_iterations = 0;
  size_t solver_newton_path_stages = 0;

  /// True when a recovery action actually fired (retry, fallback, or
  /// quarantine) — the result is still valid but was produced on a
  /// degraded path worth surfacing to the operator. Purely informational
  /// events (e.g. a degenerate attribute noted up front on an otherwise
  /// clean run) do not count.
  bool Degraded() const {
    return fallback_sequential || quarantined || glasso_attempts > 1;
  }
};

/// Options of the FDX discoverer (paper Algorithm 1).
struct FdxOptions {
  /// Structure-learning engine.
  StructureEstimator estimator = StructureEstimator::kGraphicalLasso;
  /// Graphical-lasso L1 penalty; controls the sparsity of the estimated
  /// precision matrix. Applied on the *correlation* scale (see
  /// `normalize_covariance`); the default was calibrated on the
  /// known-structure benchmarks (Table 4).
  double lambda = 0.06;
  /// Absolute sparsity threshold tau on B_ij when reading FDs off the
  /// autoregression matrix (the hyper-parameter swept in paper
  /// Table 8). Applied on top of the adaptive rule below.
  double sparsity_threshold = 0.0;
  /// Adaptive column rule: an entry B_ij qualifies only if it reaches
  /// this fraction of the largest entry in its column. Noise shrinks
  /// all of a dependent attribute's soft-logic weights *jointly* (a
  /// true FD with |X| determinants carries weight ~1/|X| before
  /// shrinkage), so a relative cut separates determinants from
  /// factorization fill-in across noise regimes where no absolute tau
  /// can.
  double relative_threshold = 0.6;
  /// Columns whose largest weight is below this floor produce no FD.
  double minimum_column_weight = 0.08;
  /// Entries at or below this magnitude are numerical zeros.
  double zero_tolerance = 1e-8;
  /// Rescale the transformed covariance to a correlation matrix before
  /// graphical lasso. Equality indicators of high-cardinality attributes
  /// have tiny variances; the rescaling makes `lambda` a scale-free
  /// knob across datasets (partial correlations are unaffected).
  bool normalize_covariance = true;
  /// Column ordering applied before the U D U^T factorization
  /// (paper Table 9; default is the minimum-degree "heuristic").
  OrderingMethod ordering = OrderingMethod::kMinDegree;
  /// Pair-transform options (Algorithm 2); `max_pairs_per_attribute`
  /// trades accuracy for speed on very tall tables.
  TransformOptions transform;
  /// Graphical-lasso iteration controls.
  GlassoOptions glasso;
  /// Worker threads for the pipeline's parallel stages (currently the
  /// pair transform). 0 picks the `FDX_THREADS` environment variable or
  /// the hardware concurrency; `transform.threads` wins when non-zero.
  /// Discovery results are bit-identical at every thread count.
  size_t threads = 0;
  /// Wall-clock budget for the whole Discover() call (transform +
  /// structure learning), in seconds; non-positive means unlimited. On
  /// expiry Discover returns Status::Timeout, matching the budget
  /// semantics of the TANE/PYRO/RFI baselines.
  double time_budget_seconds = 0.0;
  /// Let chained solves (IncrementalFdx::Append, repeated fdxd discover
  /// jobs on a growing session) warm-start graphical lasso from the
  /// previous solution. Warm starts change only the solver's initial
  /// point, never its fixed point, so results stay within the solver
  /// tolerance of a cold run; disable to force every solve cold.
  bool reuse_solver_state = true;
  /// Failure-recovery ladder for numerical errors (see RecoveryPolicy).
  RecoveryPolicy recovery;
};

/// Full output of a discovery run, including intermediate artifacts so
/// downstream data-preparation tooling (Figures 3 and 5) can inspect the
/// learned structure.
struct FdxResult {
  FdSet fds;                 ///< Discovered FDs, one per dependent attribute.
  Matrix theta;              ///< Sparse precision estimate (schema order).
  Matrix autoregression;     ///< B = I - U, mapped back to schema order.
  std::vector<size_t> ordering;  ///< Variable order used by the factorization.
  double transform_seconds = 0.0;
  double learning_seconds = 0.0;
  size_t transform_samples = 0;
  /// Estimated covariance W of the winning graphical-lasso attempt, on
  /// the (normalized) scale the solver ran on. Together with `theta` it
  /// is the warm-start seed for the next solve of a perturbed problem.
  /// Empty when sequential lasso produced the result or the run was
  /// quarantined — never warm-start from a degraded solution.
  Matrix glasso_w;
  /// What happened during the run: retries, fallbacks, quarantines.
  RunDiagnostics diagnostics;
};

/// InvalidArgument naming the option when `options` holds a value no run
/// can use: a negative (or NaN) `lambda`; 0 is legal and means no
/// penalty. Every FdxDiscoverer::Discover* call returns this error before
/// doing any work, and fdxtool's and fdxd's flags and fdxd's request
/// options are checked with it up front.
Status ValidateFdxOptions(const FdxOptions& options);

/// FDX: FD discovery via structure learning over the pair-difference
/// model (paper Algorithm 1):
///   1. PairTransformMoments  — Algorithm 2 + covariance estimation;
///   2. GraphicalLasso        — sparse inverse covariance Theta;
///   3. ComputeOrdering + UdutFactor — Theta = U D U^T, B = I - U;
///   4. GenerateFds           — Algorithm 3 with threshold tau.
class FdxDiscoverer {
 public:
  explicit FdxDiscoverer(FdxOptions options = {}) : options_(options) {}

  const FdxOptions& options() const { return options_; }

  /// Runs the full pipeline on a (possibly noisy) table.
  Result<FdxResult> Discover(const Table& table) const;

  /// Same on an encoded table; bit-identical to Discover(table) when
  /// `table` is EncodedTable::Encode(table).
  Result<FdxResult> Discover(const EncodedTable& table) const;

  /// Step 1 of the pipeline as a callable: receives the run's effective
  /// transform options (threads and the run's deadline filled in) and
  /// returns the transformed moments.
  using TransformStep =
      std::function<Result<TransformedMoments>(const TransformOptions&)>;

  /// Runs the full pipeline on a num_rows x num_columns input whose pair
  /// transform is `transform_step`. Discover passes the in-memory
  /// PairTransformMoments; the out-of-core store passes its streaming
  /// transform. Both get the same degenerate-shape result, deadline,
  /// timeout messages, and timing from this one body.
  Result<FdxResult> DiscoverWith(size_t num_rows, size_t num_columns,
                                 const TransformStep& transform_step) const;

  /// Runs structure learning + FD generation on an externally supplied
  /// covariance (used by ablations that bypass the pair transform).
  Result<FdxResult> DiscoverFromCovariance(const Matrix& covariance) const;

  /// Same, under a caller-owned deadline that may already cover earlier
  /// work (IncrementalFdx charges its covariance assembly against the
  /// same budget). A null deadline means unlimited.
  Result<FdxResult> DiscoverFromCovariance(const Matrix& covariance,
                                           const Deadline* deadline) const;

 private:
  /// Shared implementation; `deadline` spans the caller's whole run.
  Result<FdxResult> DiscoverFromCovarianceInternal(
      const Matrix& covariance, const Deadline* deadline) const;

  FdxOptions options_;
};

/// Algorithm 3: reads FDs off a strictly-upper-triangular autoregression
/// matrix expressed in permuted coordinates. `perm[i]` is the original
/// attribute at permuted position i. An entry B_ij becomes an LHS
/// membership when it is positive, at least `max(tau, floor * rel, ...)`
/// — concretely: B_ij > tau, B_ij >= relative * max_column_j, and
/// max_column_j >= floor.
FdSet GenerateFdsFromAutoregression(const Matrix& b,
                                    const std::vector<size_t>& perm,
                                    double tau, double relative,
                                    double floor, double zero_tol);

}  // namespace fdx

#endif  // FDX_CORE_FDX_H_
