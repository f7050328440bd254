#include "linalg/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/thread_pool.h"

namespace fdx {

namespace {

/// Rows per accumulation block of the sharded paths. Fixed (instead of
/// derived from the thread count) so that block boundaries — and with
/// them the floating-point reduction tree — depend only on the input
/// shape, making multi-threaded results identical at 2, 8, or any other
/// thread count.
constexpr size_t kStatsBlockRows = 4096;

size_t NumBlocks(size_t n) {
  return (n + kStatsBlockRows - 1) / kStatsBlockRows;
}

/// True when the caller asked for parallelism and the input is tall
/// enough for the blocked path to pay off.
bool UseBlockedPath(size_t n, size_t threads) {
  return ResolveThreadCount(threads) > 1 && n > kStatsBlockRows;
}

}  // namespace

Vector ColumnMeans(const Matrix& samples, size_t threads) {
  const size_t n = samples.rows();
  const size_t k = samples.cols();
  if (!UseBlockedPath(n, threads)) {
    Vector mu(k, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const double* row = samples.RowPtr(i);
      for (size_t j = 0; j < k; ++j) mu[j] += row[j];
    }
    if (n > 0) {
      for (size_t j = 0; j < k; ++j) mu[j] /= static_cast<double>(n);
    }
    return mu;
  }
  const size_t blocks = NumBlocks(n);
  std::vector<Vector> partial(blocks, Vector(k, 0.0));
  ParallelForChunks(0, blocks, blocks, threads,
                    [&](size_t block, size_t, size_t) {
                      Vector& sum = partial[block];
                      const size_t lo = block * kStatsBlockRows;
                      const size_t hi = std::min(n, lo + kStatsBlockRows);
                      for (size_t i = lo; i < hi; ++i) {
                        const double* row = samples.RowPtr(i);
                        for (size_t j = 0; j < k; ++j) sum[j] += row[j];
                      }
                    });
  Vector mu(k, 0.0);
  for (size_t block = 0; block < blocks; ++block) {
    for (size_t j = 0; j < k; ++j) mu[j] += partial[block][j];
  }
  for (size_t j = 0; j < k; ++j) mu[j] /= static_cast<double>(n);
  return mu;
}

Result<Matrix> Covariance(const Matrix& samples, size_t threads) {
  if (samples.rows() == 0) {
    return Status::InvalidArgument("covariance of an empty sample");
  }
  return CovarianceWithMean(samples, ColumnMeans(samples, threads), threads);
}

namespace {

/// The serial inner kernel shared by both covariance paths: accumulates
/// the upper triangle of sum (x - mu)(x - mu)^T over rows [lo, hi).
void AccumulateCovariance(const Matrix& samples, const Vector& mean,
                          size_t lo, size_t hi, Matrix* s) {
  const size_t k = samples.cols();
  Vector centered(k);
  for (size_t i = lo; i < hi; ++i) {
    const double* row = samples.RowPtr(i);
    for (size_t j = 0; j < k; ++j) centered[j] = row[j] - mean[j];
    for (size_t a = 0; a < k; ++a) {
      const double ca = centered[a];
      if (ca == 0.0) continue;
      double* s_row = s->RowPtr(a);
      for (size_t b = a; b < k; ++b) s_row[b] += ca * centered[b];
    }
  }
}

}  // namespace

Result<Matrix> CovarianceWithMean(const Matrix& samples, const Vector& mean,
                                  size_t threads) {
  const size_t n = samples.rows();
  const size_t k = samples.cols();
  if (n == 0) return Status::InvalidArgument("covariance of an empty sample");
  if (mean.size() != k) {
    return Status::InvalidArgument("mean dimension mismatch");
  }
  Matrix s(k, k);
  if (!UseBlockedPath(n, threads)) {
    AccumulateCovariance(samples, mean, 0, n, &s);
  } else {
    const size_t blocks = NumBlocks(n);
    std::vector<Matrix> partial(blocks, Matrix(k, k));
    ParallelForChunks(0, blocks, blocks, threads,
                      [&](size_t block, size_t, size_t) {
                        const size_t lo = block * kStatsBlockRows;
                        const size_t hi = std::min(n, lo + kStatsBlockRows);
                        AccumulateCovariance(samples, mean, lo, hi,
                                             &partial[block]);
                      });
    for (size_t block = 0; block < blocks; ++block) {
      for (size_t a = 0; a < k; ++a) {
        const double* p_row = partial[block].RowPtr(a);
        double* s_row = s.RowPtr(a);
        for (size_t b = a; b < k; ++b) s_row[b] += p_row[b];
      }
    }
  }
  const double inv_n = 1.0 / static_cast<double>(n);
  for (size_t a = 0; a < k; ++a) {
    for (size_t b = a; b < k; ++b) {
      s(a, b) *= inv_n;
      s(b, a) = s(a, b);
    }
  }
  return s;
}

Result<Matrix> Correlation(const Matrix& samples, size_t threads) {
  FDX_ASSIGN_OR_RETURN(Matrix s, Covariance(samples, threads));
  const size_t k = s.rows();
  Matrix r(k, k);
  for (size_t a = 0; a < k; ++a) {
    for (size_t b = 0; b < k; ++b) {
      const double va = s(a, a);
      const double vb = s(b, b);
      if (a == b) {
        r(a, b) = 1.0;
      } else if (va <= 0.0 || vb <= 0.0) {
        r(a, b) = 0.0;
      } else {
        r(a, b) = s(a, b) / std::sqrt(va * vb);
      }
    }
  }
  return r;
}

Matrix CorrelationFromCovariance(const Matrix& cov, double zero_tolerance) {
  const size_t k = cov.rows();
  assert(cov.cols() == k);
  // Exactly the rescaling FDX applies before graphical lasso: a scale of
  // zero (constant indicator) zeroes every coupling of that variable.
  Vector scale(k, 1.0);
  for (size_t i = 0; i < k; ++i) {
    const double var = cov(i, i);
    scale[i] = var > zero_tolerance ? 1.0 / std::sqrt(var) : 0.0;
  }
  Matrix r(k, k);
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j < k; ++j) {
      r(i, j) = i == j ? 1.0 : cov(i, j) * scale[i] * scale[j];
    }
  }
  return r;
}

Vector StandardizeColumns(Matrix* samples, size_t threads) {
  const size_t n = samples->rows();
  const size_t k = samples->cols();
  Vector mu = ColumnMeans(*samples, threads);
  Vector sd(k, 0.0);
  if (!UseBlockedPath(n, threads)) {
    for (size_t i = 0; i < n; ++i) {
      const double* row = samples->RowPtr(i);
      for (size_t j = 0; j < k; ++j) {
        const double c = row[j] - mu[j];
        sd[j] += c * c;
      }
    }
  } else {
    const size_t blocks = NumBlocks(n);
    std::vector<Vector> partial(blocks, Vector(k, 0.0));
    ParallelForChunks(0, blocks, blocks, threads,
                      [&](size_t block, size_t, size_t) {
                        Vector& sum = partial[block];
                        const size_t lo = block * kStatsBlockRows;
                        const size_t hi = std::min(n, lo + kStatsBlockRows);
                        for (size_t i = lo; i < hi; ++i) {
                          const double* row = samples->RowPtr(i);
                          for (size_t j = 0; j < k; ++j) {
                            const double c = row[j] - mu[j];
                            sum[j] += c * c;
                          }
                        }
                      });
    for (size_t block = 0; block < blocks; ++block) {
      for (size_t j = 0; j < k; ++j) sd[j] += partial[block][j];
    }
  }
  for (size_t j = 0; j < k; ++j) {
    sd[j] = n > 0 ? std::sqrt(sd[j] / static_cast<double>(n)) : 0.0;
  }
  // Row-wise rescaling is element-wise, so any chunking is exact.
  ParallelFor(0, n, threads, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      double* row = samples->RowPtr(i);
      for (size_t j = 0; j < k; ++j) {
        row[j] -= mu[j];
        if (sd[j] > 0.0) row[j] /= sd[j];
      }
    }
  });
  return sd;
}

}  // namespace fdx
