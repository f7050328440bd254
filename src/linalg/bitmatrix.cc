#include "linalg/bitmatrix.h"

#include <algorithm>

#include "linalg/simd.h"

namespace fdx {

namespace {

/// Words per cache block of the Gram kernel: 64 words (512 B) per column
/// keeps ~20 active column slices inside L1 while every column pair
/// streams over the block.
constexpr size_t kGramBlockWords = 64;

}  // namespace

void BitMatrix::Reset(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  words_per_column_ = (rows + 63) / 64;
  bits_.assign(cols_ * words_per_column_, 0);
}

void BitMatrix::AccumulateMoments(uint64_t* counts,
                                  uint64_t* co_counts) const {
  const size_t k = cols_;
  const SimdOps& ops = ActiveSimdOps();
  for (size_t w0 = 0; w0 < words_per_column_; w0 += kGramBlockWords) {
    const size_t w1 = std::min(words_per_column_, w0 + kGramBlockWords);
    const size_t len = w1 - w0;
    for (size_t x = 0; x < k; ++x) {
      const uint64_t* cx = column_words(x) + w0;
      const uint64_t self = ops.popcount_words(cx, len);
      counts[x] += self;
      co_counts[x * k + x] += self;
      for (size_t y = x + 1; y < k; ++y) {
        const uint64_t* cy = column_words(y) + w0;
        co_counts[x * k + y] += ops.popcount_and_words(cx, cy, len);
      }
    }
  }
}

}  // namespace fdx
