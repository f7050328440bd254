#ifndef FDX_TESTS_GLASSO_ORACLE_H_
#define FDX_TESTS_GLASSO_ORACLE_H_

// The graphical-lasso solver GraphicalLasso replaced: one dense
// block-coordinate loop over all k columns with per-column submatrix
// materialization (Friedman, Hastie & Tibshirani 2008), no screening,
// no active set, no warm starts. Kept as the equivalence oracle of the
// decomposed solver's tests: both converge to the same fixed point under
// the same sparsity-pattern symmetrization contract.

#include "linalg/glasso.h"

namespace fdx::oracle {

/// Solves the whole problem densely. Honors lambda, the sweep and inner
/// lasso caps and tolerances, the diagonal ridge and the deadline;
/// ignores `threads`, the warm-start fields and the solver choice.
/// Returns GlassoResult with default stats.
Result<GlassoResult> GraphicalLasso(const Matrix& s,
                                    const GlassoOptions& options);

}  // namespace fdx::oracle

#endif  // FDX_TESTS_GLASSO_ORACLE_H_
