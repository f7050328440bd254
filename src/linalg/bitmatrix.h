#ifndef FDX_LINALG_BITMATRIX_H_
#define FDX_LINALG_BITMATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace fdx {

/// A packed binary sample matrix: `rows` samples of `cols` 0/1 variables,
/// stored column-major as ceil(rows/64) `uint64_t` words per column (bit
/// `r & 63` of word `r >> 6` is sample r). Each attribute pass of the FDX
/// pair transform packs its samples, which are equality indicators, into
/// one: one cell costs one bit instead of one double, and the
/// first and second moments reduce to popcounts —
///
///   counts[x]       = popcount(col_x)            (sum of column x)
///   co_counts[x][y] = popcount(col_x AND col_y)  (co-occurrences)
///
/// — which makes moment estimation all-integer and therefore exact: any
/// partition of the words yields bit-identical accumulated counts.
///
/// Invariant: padding bits past `rows` in the last word of each column
/// are zero, so whole-word popcounts never overcount.
class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(size_t rows, size_t cols) { Reset(rows, cols); }

  /// Resizes to rows x cols and clears every word to zero.
  void Reset(size_t rows, size_t cols);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  /// Words per column (= ceil(rows / 64)).
  size_t words_per_column() const { return words_per_column_; }

  uint64_t* column_words(size_t c) {
    return bits_.data() + c * words_per_column_;
  }
  const uint64_t* column_words(size_t c) const {
    return bits_.data() + c * words_per_column_;
  }

  void Set(size_t row, size_t col) {
    column_words(col)[row >> 6] |= uint64_t{1} << (row & 63);
  }
  bool Get(size_t row, size_t col) const {
    return (column_words(col)[row >> 6] >> (row & 63)) & 1;
  }

  /// Accumulates the integer moments of every column into caller-owned
  /// accumulators:
  ///   counts[x]           += popcount of column x
  ///   co_counts[x*k + y]  += popcount(col_x AND col_y)   for y >= x
  /// (upper triangle only, diagonal included; k = cols()), in one call
  /// of the active level's SimdOps::gram.
  void AccumulateMoments(uint64_t* counts, uint64_t* co_counts) const;

  /// Bitwise equality (same shape and words).
  bool IdenticalTo(const BitMatrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           bits_ == other.bits_;
  }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  size_t words_per_column_ = 0;
  std::vector<uint64_t> bits_;
};

}  // namespace fdx

#endif  // FDX_LINALG_BITMATRIX_H_
