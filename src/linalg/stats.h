#ifndef FDX_LINALG_STATS_H_
#define FDX_LINALG_STATS_H_

#include "linalg/matrix.h"
#include "util/status.h"

namespace fdx {

/// Threading note shared by the functions below. `threads == 1` (the
/// default) runs the original serial accumulation and reproduces its
/// floating-point results bit-for-bit. Any other value (0 = FDX_THREADS
/// env / hardware concurrency) shards the rows into fixed-size blocks
/// whose partial sums are reduced in block order, so multi-threaded
/// results are deterministic and independent of the thread count — they
/// may differ from the serial path in the last ulp only (different but
/// fixed summation association).

/// Column means of an N x k sample matrix.
Vector ColumnMeans(const Matrix& samples, size_t threads = 1);

/// Empirical covariance S = (1/N) sum (x - mu)(x - mu)^T of an N x k
/// sample matrix. Uses the maximum-likelihood (1/N) normalization; for
/// the large N produced by the FDX pair transform the distinction from
/// 1/(N-1) is immaterial.
Result<Matrix> Covariance(const Matrix& samples, size_t threads = 1);

/// Covariance around a fixed (e.g. zero) mean instead of the empirical
/// one. FDX's pair-difference view corresponds to a zero-mean transformed
/// distribution (paper §4.3); exposing both lets the ablation benches
/// compare the two estimators.
Result<Matrix> CovarianceWithMean(const Matrix& samples, const Vector& mean,
                                  size_t threads = 1);

/// Pearson correlation matrix; columns with zero variance get unit
/// self-correlation and zero cross-correlation.
Result<Matrix> Correlation(const Matrix& samples, size_t threads = 1);

/// Rescales a covariance matrix to a correlation matrix: unit diagonal,
/// off-diagonals divided by the product of the standard deviations.
/// Variables whose variance is at or below `zero_tolerance` keep the
/// unit diagonal and get zero couplings (the convention FDX uses for
/// constant equality indicators). `cov` must be square.
Matrix CorrelationFromCovariance(const Matrix& cov, double zero_tolerance);

/// Standardizes columns in place to zero mean / unit variance. Columns
/// with zero variance are centered only. Returns the per-column stddevs.
Vector StandardizeColumns(Matrix* samples, size_t threads = 1);

}  // namespace fdx

#endif  // FDX_LINALG_STATS_H_
