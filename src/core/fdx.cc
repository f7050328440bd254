#include "core/fdx.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "linalg/factorization.h"
#include "linalg/lasso.h"
#include "linalg/stats.h"
#include "util/fault_injection.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace fdx {

FdSet GenerateFdsFromAutoregression(const Matrix& b,
                                    const std::vector<size_t>& perm,
                                    double tau, double relative,
                                    double floor, double zero_tol) {
  const size_t k = b.rows();
  FdSet fds;
  for (size_t j = 0; j < k; ++j) {
    // Only positive weights encode FDs: the soft-logic relaxation
    // (Eq. 3) averages the determinants with non-negative coefficients,
    // whereas the sort-and-shift pass structure of Algorithm 2 induces
    // mildly *negative* couplings between unrelated attributes.
    double column_max = 0.0;
    for (size_t i = 0; i < j; ++i) {
      column_max = std::max(column_max, b(i, j));
    }
    if (column_max < std::max(floor, zero_tol)) continue;
    const double threshold =
        std::max({tau, relative * column_max, zero_tol});
    std::vector<size_t> lhs;
    for (size_t i = 0; i < j; ++i) {
      if (b(i, j) > threshold) lhs.push_back(perm[i]);
    }
    if (!lhs.empty()) fds.emplace_back(std::move(lhs), perm[j]);
  }
  return fds;
}

namespace {

/// Output of one structure-learning attempt: the precision estimate in
/// schema order, the autoregression matrix in *permuted* coordinates,
/// and the permutation used.
struct LearnedStructure {
  Matrix theta;                  ///< schema order
  Matrix b;                      ///< permuted coordinates (strictly upper)
  std::vector<size_t> ordering;  ///< perm[i] = schema attribute at pos i
  Matrix glasso_w;               ///< glasso covariance estimate (else empty)
  GlassoStats solver_stats;      ///< glasso internals (else default)
};

void AddEvent(RunDiagnostics* diag, std::string stage, std::string action,
              std::string detail) {
  diag->events.push_back(
      {std::move(stage), std::move(action), std::move(detail)});
}

/// One graphical lasso + U D U^T attempt with an explicit diagonal ridge.
Result<LearnedStructure> TryGlassoOnce(const Matrix& input,
                                       const FdxOptions& options,
                                       double ridge,
                                       const Deadline* deadline) {
  const size_t k = input.rows();
  GlassoOptions glasso_options = options.glasso;
  glasso_options.lambda = options.lambda;
  glasso_options.diagonal_ridge = ridge;
  glasso_options.deadline = deadline;
  if (glasso_options.threads == 0) glasso_options.threads = options.threads;
  FDX_ASSIGN_OR_RETURN(GlassoResult glasso,
                       GraphicalLasso(input, glasso_options));
  LearnedStructure learned;
  learned.theta = glasso.theta;
  learned.glasso_w = std::move(glasso.w);
  learned.solver_stats = std::move(glasso.stats);
  learned.ordering = ComputeOrdering(glasso.theta, options.ordering,
                                     options.zero_tolerance);
  const Matrix permuted = glasso.theta.PermuteSymmetric(learned.ordering);
  FDX_ASSIGN_OR_RETURN(UdutResult udut, UdutFactor(permuted));

  // B = I - U in permuted coordinates.
  learned.b = Matrix(k, k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = i + 1; j < k; ++j) learned.b(i, j) = -udut.u(i, j);
  }
  return learned;
}

/// Sequential lasso: order the variables on the correlation support
/// (couplings below 0.1 are noise at the sample sizes we target), then
/// fit each column's regression on its predecessors — the
/// neighborhood-selection view of structure learning.
Result<LearnedStructure> TrySequentialLasso(const Matrix& input,
                                            const FdxOptions& options,
                                            const Deadline* deadline) {
  const size_t k = input.rows();
  LearnedStructure learned;
  learned.ordering = ComputeOrdering(input, options.ordering, 0.1);
  const Matrix permuted = input.PermuteSymmetric(learned.ordering);
  LassoOptions lasso_options;
  lasso_options.lambda = options.lambda;
  lasso_options.deadline = deadline;
  learned.b = Matrix(k, k);
  for (size_t j = 1; j < k; ++j) {
    if (deadline != nullptr && deadline->Expired()) {
      return Status::Timeout("sequential lasso: time budget exhausted");
    }
    FDX_INJECT_FAULT(
        kFaultSeqLassoColumn,
        Status::NumericalError("injected fault: seqlasso.column " +
                               std::to_string(j)));
    Matrix q(j, j);
    Vector c(j, 0.0);
    for (size_t a = 0; a < j; ++a) {
      c[a] = permuted(a, j);
      for (size_t bcol = 0; bcol < j; ++bcol) {
        q(a, bcol) = permuted(a, bcol);
      }
      q(a, a) += options.glasso.diagonal_ridge + 1e-6;
    }
    Vector beta(j, 0.0);
    FDX_RETURN_IF_ERROR(SolveQuadraticLasso(q, c, lasso_options, &beta));
    for (size_t a = 0; a < j; ++a) learned.b(a, j) = beta[a];
  }
  // Report Theta implied by the fitted SEM with unit noise:
  // Theta = (I - B)(I - B)^T, mapped back to schema order.
  Matrix i_minus_b = Matrix::Identity(k).Subtract(learned.b);
  Matrix theta_permuted = i_minus_b.Multiply(i_minus_b.Transpose());
  learned.theta = Matrix(k, k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      learned.theta(learned.ordering[i], learned.ordering[j]) =
          theta_permuted(i, j);
    }
  }
  return learned;
}

/// Recovery steps 1 and 2: the ridge-escalation schedule over graphical
/// lasso, then the fallback to sequential lasso. Only kNumericalError
/// escalates; timeouts and invalid inputs propagate immediately.
Result<LearnedStructure> LearnWithRetries(const Matrix& input,
                                          const FdxOptions& options,
                                          const Deadline* deadline,
                                          RunDiagnostics* diag) {
  const RecoveryPolicy& policy = options.recovery;
  Status last_error;
  if (options.estimator == StructureEstimator::kGraphicalLasso) {
    double ridge = options.glasso.diagonal_ridge;
    const size_t max_attempts =
        policy.enabled ? policy.max_ridge_retries + 1 : 1;
    for (size_t attempt = 0; attempt < max_attempts; ++attempt) {
      Result<LearnedStructure> learned =
          TryGlassoOnce(input, options, ridge, deadline);
      ++diag->glasso_attempts;
      if (learned.ok()) {
        diag->ridge_used = ridge;
        return learned;
      }
      last_error = learned.status();
      if (last_error.code() != StatusCode::kNumericalError) {
        return last_error;
      }
      if (attempt + 1 >= max_attempts) break;
      const double next_ridge =
          ridge > 0.0 ? std::min(ridge * policy.ridge_multiplier,
                                 policy.max_ridge)
                      : policy.max_ridge / 1e4;
      if (next_ridge <= ridge) break;  // already at the cap
      AddEvent(diag, "glasso", "retry_ridge",
               last_error.message() + "; diagonal_ridge -> " +
                   FormatDouble(next_ridge, 8));
      ridge = next_ridge;
    }
    if (!policy.enabled || !policy.allow_estimator_fallback) {
      return last_error;
    }
    AddEvent(diag, "glasso", "fallback_sequential",
             "glasso exhausted after " +
                 std::to_string(diag->glasso_attempts) + " attempt(s): " +
                 last_error.message());
  }
  Result<LearnedStructure> learned =
      TrySequentialLasso(input, options, deadline);
  if (learned.ok()) {
    if (options.estimator == StructureEstimator::kGraphicalLasso) {
      diag->fallback_sequential = true;
    }
    return learned;
  }
  last_error = learned.status();
  if (last_error.code() == StatusCode::kNumericalError) {
    AddEvent(diag, "seqlasso", "failed", last_error.message());
  }
  return last_error;
}

}  // namespace

Status ValidateFdxOptions(const FdxOptions& options) {
  if (!(options.lambda >= 0.0)) {
    return Status::InvalidArgument("lambda must be >= 0, got " +
                                   ExactDouble(options.lambda));
  }
  return Status::OK();
}

Result<FdxResult> FdxDiscoverer::Discover(const Table& table) const {
  return DiscoverWith(table.num_rows(), table.num_columns(),
                      [&table](const TransformOptions& transform) {
                        return PairTransformMoments(table, transform);
                      });
}

Result<FdxResult> FdxDiscoverer::Discover(const EncodedTable& table) const {
  return DiscoverWith(table.num_rows(), table.num_columns(),
                      [&table](const TransformOptions& transform) {
                        return PairTransformMoments(table, transform);
                      });
}

Result<FdxResult> FdxDiscoverer::DiscoverWith(
    size_t num_rows, size_t num_columns,
    const TransformStep& transform_step) const {
  FDX_RETURN_IF_ERROR(ValidateFdxOptions(options_));
  const Deadline deadline(options_.time_budget_seconds);
  Stopwatch watch;
  const size_t k = num_columns;
  const size_t n = num_rows;
  if (k == 0) {
    return Status::InvalidArgument("Discover: table has no columns");
  }
  // Degenerate shapes that cannot carry an FD produce an empty, diagnosed
  // result instead of a transform error: there is nothing to discover,
  // but nothing went wrong either.
  if (n < 2 || k < 2) {
    FdxResult result;
    result.theta = Matrix(k, k);
    result.autoregression = Matrix(k, k);
    result.ordering.resize(k);
    std::iota(result.ordering.begin(), result.ordering.end(), size_t{0});
    AddEvent(&result.diagnostics, "input", "degenerate_table",
             std::to_string(n) + " row(s) x " + std::to_string(k) +
                 " column(s): no FD can exist; returning an empty set");
    return result;
  }
  TransformOptions transform = options_.transform;
  if (transform.threads == 0) transform.threads = options_.threads;
  if (transform.deadline == nullptr && options_.time_budget_seconds > 0.0) {
    transform.deadline = &deadline;
  }
  FDX_ASSIGN_OR_RETURN(TransformedMoments moments, transform_step(transform));
  const double transform_seconds = watch.ElapsedSeconds();
  if (deadline.Expired()) {
    return Status::Timeout("fdx: time budget exhausted after transform");
  }
  FDX_ASSIGN_OR_RETURN(FdxResult result,
                       DiscoverFromCovarianceInternal(moments.cov,
                                                      &deadline));
  result.transform_seconds = transform_seconds;
  result.transform_samples = moments.num_samples;
  result.diagnostics.transform_seconds = transform_seconds;
  return result;
}

Result<FdxResult> FdxDiscoverer::DiscoverFromCovariance(
    const Matrix& covariance) const {
  const Deadline deadline(options_.time_budget_seconds);
  return DiscoverFromCovariance(covariance, &deadline);
}

Result<FdxResult> FdxDiscoverer::DiscoverFromCovariance(
    const Matrix& covariance, const Deadline* deadline) const {
  FDX_RETURN_IF_ERROR(ValidateFdxOptions(options_));
  if (deadline == nullptr) {
    const Deadline unlimited = Deadline::Unlimited();
    return DiscoverFromCovarianceInternal(covariance, &unlimited);
  }
  return DiscoverFromCovarianceInternal(covariance, deadline);
}

Result<FdxResult> FdxDiscoverer::DiscoverFromCovarianceInternal(
    const Matrix& covariance, const Deadline* deadline) const {
  Stopwatch watch;
  FdxResult result;
  RunDiagnostics& diag = result.diagnostics;
  const size_t k = covariance.rows();
  const RecoveryPolicy& policy = options_.recovery;

  // Up-front degeneracy scan: equality indicators with (near-)zero
  // variance come from all-constant or all-null columns. They are the
  // quarantine candidates of recovery step 3.
  const double variance_floor =
      std::max(options_.zero_tolerance, policy.degenerate_variance_floor);
  std::vector<size_t> degenerate;
  for (size_t i = 0; i < k; ++i) {
    if (covariance(i, i) <= variance_floor) degenerate.push_back(i);
  }
  if (!degenerate.empty()) {
    AddEvent(&diag, "input", "degenerate_attributes",
             std::to_string(degenerate.size()) +
                 " attribute(s) with (near-)constant or all-null "
                 "equality indicators");
  }

  Matrix input = covariance;
  if (options_.normalize_covariance) {
    input = CorrelationFromCovariance(covariance, options_.zero_tolerance);
  }

  LearnedStructure learned;
  Result<LearnedStructure> attempt =
      LearnWithRetries(input, options_, deadline, &diag);
  if (attempt.ok()) {
    learned = std::move(attempt).value();
  } else if (attempt.status().code() == StatusCode::kNumericalError &&
             policy.enabled && policy.allow_quarantine &&
             !degenerate.empty() && degenerate.size() < k) {
    // Recovery step 3: drop the degenerate attributes and re-learn on
    // the remainder; the quarantined attributes get zero rows/columns
    // and never participate in FDs.
    std::vector<size_t> keep;
    keep.reserve(k - degenerate.size());
    {
      size_t next_degenerate = 0;
      for (size_t i = 0; i < k; ++i) {
        if (next_degenerate < degenerate.size() &&
            degenerate[next_degenerate] == i) {
          ++next_degenerate;
        } else {
          keep.push_back(i);
        }
      }
    }
    const size_t m = keep.size();
    Matrix reduced(m, m);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < m; ++j) reduced(i, j) = input(keep[i], keep[j]);
    }
    diag.quarantined = true;
    diag.quarantined_attributes = degenerate;
    AddEvent(&diag, "quarantine", "rerun_without_degenerate",
             attempt.status().message() + "; re-learning on " +
                 std::to_string(m) + " of " + std::to_string(k) +
                 " attributes");
    Result<LearnedStructure> rerun =
        LearnWithRetries(reduced, options_, deadline, &diag);
    if (!rerun.ok()) return rerun.status();
    const LearnedStructure& sub = *rerun;
    // Embed the reduced solution back into full-size artifacts. The
    // quarantined attributes occupy the tail of the permutation with
    // all-zero autoregression columns, so FD generation skips them.
    learned.theta = Matrix(k, k);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < m; ++j) {
        learned.theta(keep[i], keep[j]) = sub.theta(i, j);
      }
    }
    learned.b = Matrix(k, k);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < m; ++j) learned.b(i, j) = sub.b(i, j);
    }
    learned.ordering.reserve(k);
    for (size_t i = 0; i < m; ++i) {
      learned.ordering.push_back(keep[sub.ordering[i]]);
    }
    for (size_t attr : degenerate) learned.ordering.push_back(attr);
  } else {
    return attempt.status();
  }

  // Solver internals of the winning attempt; a quarantined run rebuilds
  // `learned` by hand above and deliberately leaves these empty.
  if (learned.solver_stats.components > 0) {
    diag.solver_components = learned.solver_stats.components;
    diag.solver_component_sizes = learned.solver_stats.component_sizes;
    diag.solver_sweeps = learned.solver_stats.sweeps;
    diag.solver_final_change = learned.solver_stats.final_mean_change;
    diag.solver_active_hit_rate = learned.solver_stats.ActiveHitRate();
    diag.solver_warm_start = learned.solver_stats.warm_start_used;
    diag.solver_backend = learned.solver_stats.SolverBackend();
    diag.solver_newton_iterations = learned.solver_stats.newton_iterations;
    diag.solver_newton_path_stages =
        learned.solver_stats.newton_path_stages;
  }
  result.glasso_w = std::move(learned.glasso_w);
  result.theta = std::move(learned.theta);
  result.ordering = std::move(learned.ordering);
  result.fds = GenerateFdsFromAutoregression(
      learned.b, result.ordering, options_.sparsity_threshold,
      options_.relative_threshold, options_.minimum_column_weight,
      options_.zero_tolerance);

  // Map B back into schema order for the heatmap-style displays.
  result.autoregression = Matrix(k, k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      result.autoregression(result.ordering[i], result.ordering[j]) =
          learned.b(i, j);
    }
  }
  result.learning_seconds = watch.ElapsedSeconds();
  diag.learning_seconds = result.learning_seconds;
  return result;
}

}  // namespace fdx
