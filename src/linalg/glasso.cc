#include "linalg/glasso.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "linalg/glasso_newton.h"
#include "linalg/lasso.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace fdx {

namespace {

Status ValidateGlassoInput(const Matrix& s) {
  const size_t k = s.rows();
  if (k == 0 || s.cols() != k) {
    return Status::InvalidArgument("glasso needs a non-empty square matrix");
  }
  if (!s.IsSymmetric(1e-6)) {
    return Status::InvalidArgument("glasso needs a symmetric matrix");
  }
  return Status::OK();
}

LassoOptions InnerLassoOptions(const GlassoOptions& options) {
  LassoOptions lasso_options;
  lasso_options.lambda = options.lambda;
  lasso_options.max_iterations = options.lasso_max_iterations;
  lasso_options.tolerance = options.lasso_tolerance;
  lasso_options.deadline = options.deadline;
  return lasso_options;
}

/// One screened component of size >= 2, carried through decompose ->
/// solve -> assemble. `s` and `w` are the block-local problem (original
/// member order); the solve replaces `w` and fills `theta` in the same
/// order, so assembly is a plain scatter.
struct BlockProblem {
  std::vector<size_t> members;
  Matrix s;
  Matrix w;
  Matrix theta;
  bool warm = false;  ///< betas seeded from GlassoOptions::warm_theta
  /// Backend chosen by the per-component dispatch (see GlassoSolver).
  bool use_newton = false;

  Status status = Status::OK();
  size_t sweeps = 0;
  double final_mean_change = 0.0;
  LassoSolveStats lasso;
  size_t newton_iterations = 0;
  size_t newton_path_stages = 0;
  bool newton_fallback = false;
};

/// Swaps working slots `a` and `b` (rows and columns) of the two m x m
/// working matrices and keeps the slot <-> local-index maps in sync.
void SwapSlots(Matrix* ws, Matrix* ss, std::vector<size_t>* order,
               std::vector<size_t>* where, size_t a, size_t b) {
  const size_t m = ws->rows();
  std::swap_ranges(ws->RowPtr(a), ws->RowPtr(a) + m, ws->RowPtr(b));
  std::swap_ranges(ss->RowPtr(a), ss->RowPtr(a) + m, ss->RowPtr(b));
  for (size_t r = 0; r < m; ++r) {
    std::swap((*ws)(r, a), (*ws)(r, b));
    std::swap((*ss)(r, a), (*ss)(r, b));
  }
  std::swap((*order)[a], (*order)[b]);
  (*where)[(*order)[a]] = a;
  (*where)[(*order)[b]] = b;
}

/// Block coordinate descent on one component. Instead of materializing
/// the (m-1) x (m-1) submatrix Q per column per sweep, the current
/// column is swapped to the last working slot (O(m)) so W11 is the
/// leading corner of the working matrix, handed to the inner lasso as a
/// strided zero-copy view.
void SolveBlock(BlockProblem* blk, const GlassoOptions& options,
                const Matrix* warm_theta) {
  const size_t m = blk->members.size();
  Matrix ws = std::move(blk->w);  // working W, permuted by the swaps
  Matrix ss = blk->s;             // working S, permuted alongside
  std::vector<size_t> order(m);   // order[slot] = local index at slot
  std::vector<size_t> where(m);   // where[local] = slot holding it
  std::iota(order.begin(), order.end(), size_t{0});
  std::iota(where.begin(), where.end(), size_t{0});

  // Warm-started lasso coefficients, indexed [column j][local index a]
  // (slot a == j unused) so they stay coherent across the slot swaps.
  std::vector<Vector> betas(m, Vector(m, 0.0));
  if (blk->warm) {
    // beta_j = -theta_{rest, j} / theta_jj, the exact inversion of the
    // theta recovery below; a non-positive diagonal leaves the column
    // cold-started.
    for (size_t j = 0; j < m; ++j) {
      const size_t gj = blk->members[j];
      const double theta_jj = (*warm_theta)(gj, gj);
      if (theta_jj <= 0.0) continue;
      for (size_t a = 0; a < m; ++a) {
        if (a == j) continue;
        betas[j][a] = -(*warm_theta)(blk->members[a], gj) / theta_jj;
      }
    }
  }

  // Convergence scale: mean absolute off-diagonal of the block's S.
  double s_scale = 0.0;
  for (size_t a = 0; a < m; ++a) {
    for (size_t b = 0; b < m; ++b) {
      if (a != b) s_scale += std::fabs(ss(a, b));
    }
  }
  s_scale /= static_cast<double>(m * (m - 1));
  if (s_scale <= 0.0) s_scale = 1.0;

  const LassoOptions lasso_options = InnerLassoOptions(options);
  Vector c(m - 1, 0.0);
  Vector beta_work(m - 1, 0.0);
  std::vector<uint32_t> active;  // nonzero beta indices of the column
  active.reserve(m);
  double mean_change = 0.0;

  for (size_t sweep = 0; sweep < options.max_iterations; ++sweep) {
    if (options.deadline != nullptr && options.deadline->Expired()) {
      blk->status = Status::Timeout("glasso: time budget exhausted after " +
                                    std::to_string(sweep) + " sweeps");
      return;
    }
    if (FaultTriggered(kFaultGlassoSweep)) {
      blk->status = Status::NumericalError("injected fault: glasso.sweep " +
                                           std::to_string(sweep));
      return;
    }
    double total_change = 0.0;
    for (size_t j = 0; j < m; ++j) {
      if (where[j] != m - 1) {
        SwapSlots(&ws, &ss, &order, &where, where[j], m - 1);
      }
      for (size_t a = 0; a < m - 1; ++a) {
        c[a] = ss(a, m - 1);
        beta_work[a] = betas[j][order[a]];
      }
      const ConstMatrixView w11(ws.RowPtr(0), m - 1, m - 1, m);
      const Status solved = SolveQuadraticLasso(
          w11, c.data(), lasso_options, beta_work.data(), &blk->lasso);
      if (!solved.ok()) {
        blk->status = solved;
        return;
      }
      for (size_t a = 0; a < m - 1; ++a) betas[j][order[a]] = beta_work[a];
      // w12 = W11 * beta, in covariance-update form (the glmnet trick
      // carried into the glasso inner loop): only the active (nonzero)
      // coefficients contribute, so each row dot costs O(nnz) instead
      // of O(m) — a large win on the sparse structure the screening
      // left inside a component.
      active.clear();
      for (size_t b = 0; b < m - 1; ++b) {
        if (beta_work[b] != 0.0) active.push_back(static_cast<uint32_t>(b));
      }
      for (size_t a = 0; a < m - 1; ++a) {
        const double* row = ws.RowPtr(a);
        double acc = 0.0;
        for (const uint32_t b : active) acc += row[b] * beta_work[b];
        total_change += std::fabs(ws(a, m - 1) - acc);
        ws(a, m - 1) = acc;
        ws(m - 1, a) = acc;
      }
    }
    blk->sweeps = sweep + 1;
    mean_change = total_change / static_cast<double>(m * (m - 1));
    if (mean_change < options.tolerance * s_scale) break;
  }
  blk->final_mean_change = mean_change;

  // Un-permute the working W into original member order.
  Matrix w_local(m, m);
  for (size_t a = 0; a < m; ++a) {
    for (size_t b = 0; b < m; ++b) w_local(order[a], order[b]) = ws(a, b);
  }

  // Recover Theta from the final betas:
  //   theta_jj = 1 / (w_jj - w12^T beta_j),  theta_{rest, j} = -beta theta_jj.
  Matrix theta_local(m, m);
  for (size_t j = 0; j < m; ++j) {
    double w12_beta = 0.0;
    for (size_t a = 0; a < m; ++a) {
      if (a != j) w12_beta += w_local(a, j) * betas[j][a];
    }
    const double denom = w_local(j, j) - w12_beta;
    if (denom <= 0.0) {
      blk->status = Status::NumericalError("glasso: non-positive theta diagonal");
      return;
    }
    const double theta_jj = 1.0 / denom;
    theta_local(j, j) = theta_jj;
    for (size_t a = 0; a < m; ++a) {
      if (a != j) theta_local(a, j) = -betas[j][a] * theta_jj;
    }
  }
  // Symmetrize. A pair is zero only when both directions were zeroed by
  // the lasso, preserving the exact sparsity pattern.
  for (size_t a = 0; a < m; ++a) {
    for (size_t b = a + 1; b < m; ++b) {
      const double avg = 0.5 * (theta_local(a, b) + theta_local(b, a));
      theta_local(a, b) = avg;
      theta_local(b, a) = avg;
    }
  }
  blk->w = std::move(w_local);
  blk->theta = std::move(theta_local);
}

/// Per-component backend choice. kAuto sends large dense components to
/// the Newton solver and leaves everything else — notably the
/// block/banded/sparse structure the screening already decomposed — on
/// the exact CD path it had before the Newton solver existed.
bool ChooseNewton(const GlassoOptions& options, size_t m, double density) {
  switch (options.solver) {
    case GlassoSolver::kCoordinateDescent:
      return false;
    case GlassoSolver::kNewton:
      return true;
    case GlassoSolver::kAuto:
      return m >= options.newton_min_block &&
             density >= options.newton_dense_threshold;
  }
  return false;
}

/// Solves one block with the backend the dispatch picked. A Newton
/// numerical failure under kAuto falls back to coordinate descent on
/// the same block (recorded in stats.newton_fallbacks); timeouts,
/// forced-kNewton failures, and injected faults propagate unchanged so
/// deadline and chaos semantics stay exact.
void SolveBlockDispatch(BlockProblem* blk, const GlassoOptions& options,
                        const Matrix* warm_theta) {
  if (blk->use_newton) {
    Matrix warm_block;
    const Matrix* warm_ptr = nullptr;
    if (blk->warm) {
      const size_t m = blk->members.size();
      warm_block = Matrix(m, m);
      for (size_t a = 0; a < m; ++a) {
        for (size_t b = 0; b < m; ++b) {
          warm_block(a, b) =
              (*warm_theta)(blk->members[a], blk->members[b]);
        }
      }
      warm_ptr = &warm_block;
    }
    Result<NewtonBlockResult> solved =
        SolveBlockNewton(blk->s, options, warm_ptr);
    if (solved.ok()) {
      NewtonBlockResult& newton = solved.value();
      blk->w = std::move(newton.w);
      blk->theta = std::move(newton.theta);
      blk->sweeps = newton.iterations;
      blk->final_mean_change = newton.final_mean_change;
      blk->newton_iterations = newton.iterations;
      blk->newton_path_stages = newton.path_stages;
      return;
    }
    const Status& failure = solved.status();
    const bool injected =
        failure.message().rfind("injected fault", 0) == 0;
    if (options.solver != GlassoSolver::kAuto ||
        failure.code() == StatusCode::kTimeout || injected) {
      blk->status = failure;
      return;
    }
    blk->use_newton = false;
    blk->newton_fallback = true;
  }
  SolveBlock(blk, options, warm_theta);
}

}  // namespace

const char* GlassoSolverName(GlassoSolver solver) {
  switch (solver) {
    case GlassoSolver::kAuto:
      return "auto";
    case GlassoSolver::kCoordinateDescent:
      return "cd";
    case GlassoSolver::kNewton:
      return "newton";
  }
  return "auto";
}

bool ParseGlassoSolver(const std::string& text, GlassoSolver* out) {
  if (text == "auto") {
    *out = GlassoSolver::kAuto;
  } else if (text == "cd") {
    *out = GlassoSolver::kCoordinateDescent;
  } else if (text == "newton") {
    *out = GlassoSolver::kNewton;
  } else {
    return false;
  }
  return true;
}

std::vector<std::vector<size_t>> GlassoScreenComponents(const Matrix& s,
                                                        double lambda) {
  const size_t k = s.rows();
  std::vector<size_t> parent(k);
  std::iota(parent.begin(), parent.end(), size_t{0});
  auto find = [&parent](size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];  // path halving
      x = parent[x];
    }
    return x;
  };
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) {
      if (std::fabs(s(i, j)) > lambda) {
        const size_t ri = find(i);
        const size_t rj = find(j);
        if (ri != rj) parent[std::max(ri, rj)] = std::min(ri, rj);
      }
    }
  }
  // Group in first-member order; member lists come out ascending.
  std::vector<std::vector<size_t>> components;
  constexpr size_t kNone = static_cast<size_t>(-1);
  std::vector<size_t> slot_of_root(k, kNone);
  for (size_t i = 0; i < k; ++i) {
    const size_t root = find(i);
    if (slot_of_root[root] == kNone) {
      slot_of_root[root] = components.size();
      components.emplace_back();
    }
    components[slot_of_root[root]].push_back(i);
  }
  return components;
}

Result<GlassoResult> GraphicalLasso(const Matrix& s,
                                    const GlassoOptions& options) {
  FDX_RETURN_IF_ERROR(ValidateGlassoInput(s));
  const size_t k = s.rows();
  const double diag_shift = options.lambda + options.diagonal_ridge;

  GlassoResult result;
  if (k == 1) {
    result.w = Matrix(1, 1);
    result.w(0, 0) = s(0, 0) + diag_shift;
    result.theta = Matrix(1, 1);
    result.theta(0, 0) = 1.0 / result.w(0, 0);
    result.stats.components = 1;
    result.stats.singletons = 1;
    result.stats.component_sizes = {1};
    return result;
  }

  if (options.deadline != nullptr && options.deadline->Expired()) {
    return Status::Timeout("glasso: time budget exhausted after 0 sweeps");
  }
  // Call-level visit of the sweep fault point: an armed fault must fire
  // even when screening leaves no block with a sweep loop to visit it.
  FDX_INJECT_FAULT(kFaultGlassoSweep,
                   Status::NumericalError("injected fault: glasso.sweep 0"));

  GlassoStats& stats = result.stats;
  std::vector<std::vector<size_t>> components =
      GlassoScreenComponents(s, options.lambda);
  stats.components = components.size();
  stats.component_sizes.reserve(components.size());
  for (const auto& members : components) {
    stats.component_sizes.push_back(members.size());
    if (members.size() == 1) ++stats.singletons;
  }

  // Warm-start acceptance: exact-size previous solves only.
  const Matrix* warm_w = options.warm_w;
  const Matrix* warm_theta = options.warm_theta;
  if (warm_w != nullptr && (warm_w->rows() != k || warm_w->cols() != k)) {
    warm_w = nullptr;
  }
  if (warm_theta != nullptr &&
      (warm_theta->rows() != k || warm_theta->cols() != k)) {
    warm_theta = nullptr;
  }
  stats.warm_start_used = warm_w != nullptr || warm_theta != nullptr;

  // Decompose: gather each multi-member block's local problem.
  std::vector<BlockProblem> blocks;
  std::vector<size_t> singletons;
  for (auto& members : components) {
    if (members.size() == 1) {
      singletons.push_back(members[0]);
      continue;
    }
    BlockProblem blk;
    const size_t m = members.size();
    blk.s = Matrix(m, m);
    blk.w = Matrix(m, m);
    for (size_t a = 0; a < m; ++a) {
      for (size_t b = 0; b < m; ++b) {
        blk.s(a, b) = s(members[a], members[b]);
        // W starts at S (off-diagonal possibly from the previous solve)
        // with the penalty + ridge shift on the diagonal.
        blk.w(a, b) = a == b ? blk.s(a, b) + diag_shift
                     : warm_w != nullptr
                         ? (*warm_w)(members[a], members[b])
                         : blk.s(a, b);
      }
    }
    // Screened edge density of the component, for the solver dispatch:
    // the screening connected these members, but how densely determines
    // whether second-order Newton beats coordinate descent.
    size_t edges = 0;
    for (size_t a = 0; a < m; ++a) {
      for (size_t b = a + 1; b < m; ++b) {
        if (std::fabs(blk.s(a, b)) > options.lambda) ++edges;
      }
    }
    const double density = static_cast<double>(2 * edges) /
                           static_cast<double>(m * (m - 1));
    blk.use_newton = ChooseNewton(options, m, density);
    blk.warm = warm_theta != nullptr;
    blk.members = std::move(members);
    blocks.push_back(std::move(blk));
  }

  // Solve the blocks, fanned out over the pool. Every block runs its
  // own serial solve and owns disjoint output cells, so the result (and
  // every counter below) is identical at any thread count.
  ParallelFor(0, blocks.size(), options.threads, [&](size_t lo, size_t hi) {
    for (size_t b = lo; b < hi; ++b) {
      SolveBlockDispatch(&blocks[b], options, warm_theta);
    }
  });

  // Surface the first failure in component order — deterministic no
  // matter which worker hit it first.
  for (const BlockProblem& blk : blocks) {
    FDX_RETURN_IF_ERROR(blk.status);
  }

  // Assemble: singletons close in O(1); blocks scatter back. Cross-
  // component cells stay exactly zero in Theta — and in W, where an
  // undecomposed sweep would converge to w12 = W11 * 0 columns.
  result.w = Matrix(k, k);
  result.theta = Matrix(k, k);
  for (size_t j : singletons) {
    const double w_jj = s(j, j) + diag_shift;
    if (w_jj <= 0.0) {
      return Status::NumericalError("glasso: non-positive theta diagonal");
    }
    result.w(j, j) = w_jj;
    result.theta(j, j) = 1.0 / w_jj;
  }
  for (const BlockProblem& blk : blocks) {
    const size_t m = blk.members.size();
    for (size_t a = 0; a < m; ++a) {
      for (size_t b = 0; b < m; ++b) {
        result.w(blk.members[a], blk.members[b]) = blk.w(a, b);
        result.theta(blk.members[a], blk.members[b]) = blk.theta(a, b);
      }
    }
    result.sweeps = std::max(result.sweeps, blk.sweeps);
    stats.final_mean_change =
        std::max(stats.final_mean_change, blk.final_mean_change);
    stats.lasso_full_passes += blk.lasso.full_passes;
    stats.lasso_active_passes += blk.lasso.active_passes;
    if (blk.use_newton) {
      ++stats.newton_blocks;
      stats.newton_iterations += blk.newton_iterations;
      stats.newton_path_stages += blk.newton_path_stages;
    } else {
      ++stats.cd_blocks;
    }
    if (blk.newton_fallback) ++stats.newton_fallbacks;
  }
  stats.sweeps = result.sweeps;
  return result;
}

}  // namespace fdx
