#include "transform_oracle.h"

#include "util/thread_pool.h"

namespace fdx::oracle {

Result<Matrix> PairTransform(const Table& table,
                             const TransformOptions& options) {
  FDX_ASSIGN_OR_RETURN(BitMatrix bits, PairTransformPacked(table, options));
  Matrix out(bits.rows(), bits.cols());
  ParallelFor(0, bits.rows(), options.threads, [&](size_t lo, size_t hi) {
    bits.UnpackRows(lo, hi, &out);
  });
  return out;
}

}  // namespace fdx::oracle
