#ifndef FDX_LINALG_GLASSO_H_
#define FDX_LINALG_GLASSO_H_

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace fdx {

/// Per-component solver backend of the fast graphical lasso.
enum class GlassoSolver : int {
  /// Per-component heuristic: the QUIC-style Newton solver for large
  /// dense components (size >= newton_min_block and screened edge
  /// density >= newton_dense_threshold), block coordinate descent
  /// everywhere else. Block/banded/sparse structure keeps the exact CD
  /// path it had before the Newton solver existed.
  kAuto = 0,
  /// Force block coordinate descent (FHT 2008) on every component.
  kCoordinateDescent = 1,
  /// Force the QUIC-style Newton solver on every component.
  kNewton = 2,
};

/// Name of a solver choice: "auto", "cd", "newton".
const char* GlassoSolverName(GlassoSolver solver);
/// Parses "auto" / "cd" / "newton"; returns false on anything else.
bool ParseGlassoSolver(const std::string& text, GlassoSolver* out);

/// Options for the graphical lasso estimator.
struct GlassoOptions {
  /// L1 penalty on the off-diagonal entries of the precision matrix. The
  /// larger the value, the sparser the estimated structure.
  double lambda = 0.05;
  /// Maximum block-coordinate sweeps over the columns.
  size_t max_iterations = 100;
  /// Convergence: mean absolute change of W per sweep relative to the
  /// mean absolute off-diagonal of S (per connected component).
  double tolerance = 1e-4;
  /// Ridge added to the diagonal of S before solving; keeps the problem
  /// well posed when the pair transform produces (near-)constant columns.
  double diagonal_ridge = 1e-6;
  /// Inner lasso iteration cap.
  size_t lasso_max_iterations = 500;
  double lasso_tolerance = 1e-6;
  /// Optional wall-clock budget, polled once per block sweep and inside
  /// the inner lasso. Non-owning; the pointed-to deadline must outlive
  /// the call. When it expires the estimator returns Status::Timeout,
  /// matching the budget semantics of the TANE/PYRO/RFI baselines.
  const Deadline* deadline = nullptr;
  /// Worker threads for the per-component fan-out (0 = FDX_THREADS /
  /// hardware concurrency). Every component is solved serially and
  /// written to disjoint output cells, so the result is bit-identical at
  /// any thread count.
  size_t threads = 0;
  /// Optional warm start. `warm_w` seeds the off-diagonal of the working
  /// covariance estimate and `warm_theta` seeds the per-column lasso
  /// coefficients via beta_j = -theta_{.j} / theta_jj. Both must be
  /// k x k views of a previous solve on (a perturbation of) the same
  /// problem; mismatched dimensions are ignored. Warm starts change only
  /// the initial point of an iterative scheme that converges to the same
  /// optimum — they buy sweeps, not a different answer. Non-owning.
  const Matrix* warm_w = nullptr;
  const Matrix* warm_theta = nullptr;
  /// Per-component solver backend. See GlassoSolver.
  GlassoSolver solver = GlassoSolver::kAuto;
  /// Newton-solver knobs: outer Newton iteration cap, and the kAuto
  /// dispatch thresholds (component size and screened edge density at or
  /// above which a component takes the Newton path).
  size_t newton_max_iterations = 50;
  size_t newton_min_block = 32;
  double newton_dense_threshold = 0.5;
  /// Lambda-path continuation for *cold* Newton solves: the target
  /// lambda is warm-started from a short sequence of sparser solves
  /// (descending multiples of lambda clamped under lambda_max). Purely
  /// an initial-point device — it never changes the fixed point — and
  /// deterministic, so lineage-keyed result caches stay valid.
  /// Warm-started solves skip the path.
  bool lambda_path = true;
};

/// Execution statistics of one solve: what screening found and how hard
/// the block solves worked. Every field is deterministic for a fixed
/// input (at any thread count), so the stats are safe to surface in
/// cacheable diagnostics payloads.
struct GlassoStats {
  /// Connected components of the screening graph |S_ij| > lambda.
  size_t components = 0;
  /// Component sizes in component order (by smallest member index).
  std::vector<size_t> component_sizes;
  /// Components of size one, closed in O(1) without entering the solver.
  size_t singletons = 0;
  /// Max block-coordinate sweeps over the non-singleton components.
  size_t sweeps = 0;
  /// Largest last-sweep mean absolute W change across components.
  double final_mean_change = 0.0;
  /// Inner-lasso pass counters, summed over all block solves.
  size_t lasso_full_passes = 0;
  size_t lasso_active_passes = 0;
  /// True when a warm start was accepted and applied.
  bool warm_start_used = false;

  /// Per-backend block counts of the per-component dispatch (singletons
  /// belong to neither) and the Newton work counters, summed over all
  /// Newton blocks: outer Newton iterations at the target lambda, the
  /// lambda-path continuation stages that preceded them, and blocks
  /// where a failed Newton solve fell back to coordinate descent (kAuto
  /// only; a forced kNewton propagates the failure instead).
  size_t cd_blocks = 0;
  size_t newton_blocks = 0;
  size_t newton_iterations = 0;
  size_t newton_path_stages = 0;
  size_t newton_fallbacks = 0;

  /// Fraction of inner-lasso passes that ran on the active set only.
  double ActiveHitRate() const {
    const size_t total = lasso_full_passes + lasso_active_passes;
    return total == 0 ? 0.0
                      : static_cast<double>(lasso_active_passes) /
                            static_cast<double>(total);
  }

  /// Which backend(s) actually solved blocks: "cd", "newton", or
  /// "cd+newton". All-singleton (or k == 1) runs report "cd".
  const char* SolverBackend() const {
    if (newton_blocks == 0) return "cd";
    return cd_blocks == 0 ? "newton" : "cd+newton";
  }
};

/// Output of the graphical lasso: the estimated covariance W and the
/// sparse precision (inverse covariance) matrix Theta, with exact zeros
/// where the lasso zeroed a partial correlation.
struct GlassoResult {
  Matrix w;      ///< Estimated covariance (S + lambda on the diagonal).
  Matrix theta;  ///< Sparse precision matrix.
  size_t sweeps = 0;  ///< Block sweeps until convergence (max over blocks).
  GlassoStats stats;
};

/// Connected components of the covariance screening graph: nodes are
/// variables, an edge joins i and j iff |S_ij| > lambda. For the
/// lasso-penalized objective this partition is *exact* (Witten, Friedman
/// & Simon 2011; Mazumder & Hastie 2012): the glasso solution is block
/// diagonal over these components, so each can be solved independently
/// and cross-component entries of Theta and W are identically zero.
/// Components are ordered by smallest member; members are ascending.
std::vector<std::vector<size_t>> GlassoScreenComponents(const Matrix& s,
                                                        double lambda);

/// Sparse inverse covariance estimation via the block coordinate descent
/// of Friedman, Hastie & Tibshirani (2008). Solves
///   max_Theta  log det(Theta) - tr(S Theta) - lambda ||Theta||_1
/// by repeatedly reducing each column to a lasso problem. This is the
/// structure-learning engine behind FDX (paper §4.2) and the GL baseline.
///
/// The fast path: screens S into connected components (exact, see
/// GlassoScreenComponents), closes singletons in O(1), and solves the
/// remaining blocks independently — in parallel when `options.threads`
/// allows — with zero-copy column views and the active-set inner lasso.
/// Deterministic for a fixed input at any thread count. The dense,
/// undecomposed solver it replaced is the equivalence oracle of its
/// tests (tests/glasso_oracle.h).
Result<GlassoResult> GraphicalLasso(const Matrix& s,
                                    const GlassoOptions& options);

}  // namespace fdx

#endif  // FDX_LINALG_GLASSO_H_
