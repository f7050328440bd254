#include "linalg/bitmatrix.h"

#include "linalg/simd.h"

namespace fdx {

void BitMatrix::Reset(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  words_per_column_ = (rows + 63) / 64;
  bits_.assign(cols_ * words_per_column_, 0);
}

void BitMatrix::AccumulateMoments(uint64_t* counts,
                                  uint64_t* co_counts) const {
  ActiveSimdOps().gram(bits_.data(), cols_, words_per_column_, counts,
                       co_counts);
}

}  // namespace fdx
