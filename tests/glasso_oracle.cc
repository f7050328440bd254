#include "glasso_oracle.h"

#include <cmath>
#include <string>
#include <vector>

#include "linalg/lasso.h"

namespace fdx::oracle {

Result<GlassoResult> GraphicalLasso(const Matrix& s,
                                    const GlassoOptions& options) {
  const size_t k = s.rows();
  if (k == 0 || s.cols() != k) {
    return Status::InvalidArgument("glasso needs a non-empty square matrix");
  }
  if (!s.IsSymmetric(1e-6)) {
    return Status::InvalidArgument("glasso needs a symmetric matrix");
  }

  GlassoResult result;
  result.w = s;
  for (size_t j = 0; j < k; ++j) {
    result.w(j, j) += options.lambda + options.diagonal_ridge;
  }

  if (k == 1) {
    result.theta = Matrix(1, 1);
    result.theta(0, 0) = 1.0 / result.w(0, 0);
    return result;
  }

  // Warm-started lasso coefficients, one (k-1)-vector per column.
  std::vector<Vector> betas(k, Vector(k - 1, 0.0));

  // Convergence scale: mean absolute off-diagonal of S.
  double s_scale = 0.0;
  for (size_t a = 0; a < k; ++a) {
    for (size_t b = 0; b < k; ++b) {
      if (a != b) s_scale += std::fabs(s(a, b));
    }
  }
  s_scale /= static_cast<double>(k * (k - 1));
  if (s_scale <= 0.0) s_scale = 1.0;

  LassoOptions lasso_options;
  lasso_options.lambda = options.lambda;
  lasso_options.max_iterations = options.lasso_max_iterations;
  lasso_options.tolerance = options.lasso_tolerance;
  lasso_options.deadline = options.deadline;

  Matrix q(k - 1, k - 1);
  Vector c(k - 1, 0.0);
  std::vector<size_t> rest(k - 1);

  for (size_t sweep = 0; sweep < options.max_iterations; ++sweep) {
    if (options.deadline != nullptr && options.deadline->Expired()) {
      return Status::Timeout("glasso: time budget exhausted after " +
                             std::to_string(sweep) + " sweeps");
    }
    double total_change = 0.0;
    for (size_t j = 0; j < k; ++j) {
      size_t pos = 0;
      for (size_t m = 0; m < k; ++m) {
        if (m != j) rest[pos++] = m;
      }
      for (size_t a = 0; a < k - 1; ++a) {
        c[a] = s(rest[a], j);
        for (size_t b = 0; b < k - 1; ++b) q(a, b) = result.w(rest[a], rest[b]);
      }
      FDX_RETURN_IF_ERROR(
          SolveQuadraticLasso(q, c, lasso_options, &betas[j]));
      // w12 = W11 * beta.
      for (size_t a = 0; a < k - 1; ++a) {
        double acc = 0.0;
        for (size_t b = 0; b < k - 1; ++b) acc += q(a, b) * betas[j][b];
        total_change += std::fabs(result.w(rest[a], j) - acc);
        result.w(rest[a], j) = acc;
        result.w(j, rest[a]) = acc;
      }
    }
    result.sweeps = sweep + 1;
    const double mean_change =
        total_change / static_cast<double>(k * (k - 1));
    if (mean_change < options.tolerance * s_scale) break;
  }

  // Recover Theta from the final betas:
  //   theta_jj = 1 / (w_jj - w12^T beta_j),  theta_{rest, j} = -beta theta_jj.
  result.theta = Matrix(k, k);
  for (size_t j = 0; j < k; ++j) {
    size_t pos = 0;
    for (size_t m = 0; m < k; ++m) {
      if (m != j) rest[pos++] = m;
    }
    double w12_beta = 0.0;
    for (size_t a = 0; a < k - 1; ++a) {
      w12_beta += result.w(rest[a], j) * betas[j][a];
    }
    const double denom = result.w(j, j) - w12_beta;
    if (denom <= 0.0) {
      return Status::NumericalError("glasso: non-positive theta diagonal");
    }
    const double theta_jj = 1.0 / denom;
    result.theta(j, j) = theta_jj;
    for (size_t a = 0; a < k - 1; ++a) {
      result.theta(rest[a], j) = -betas[j][a] * theta_jj;
    }
  }
  // Symmetrize. A pair is zero only when both directions were zeroed by
  // the lasso, preserving the exact sparsity pattern.
  for (size_t a = 0; a < k; ++a) {
    for (size_t b = a + 1; b < k; ++b) {
      const double avg = 0.5 * (result.theta(a, b) + result.theta(b, a));
      result.theta(a, b) = avg;
      result.theta(b, a) = avg;
    }
  }
  return result;
}

}  // namespace fdx::oracle
