#ifndef FDX_TESTS_GRAM_ORACLE_H_
#define FDX_TESTS_GRAM_ORACLE_H_

// The integer moments of a packed bit matrix from first principles: one
// walk over its rows, reading every bit with BitMatrix::Get and counting
// each pair of set columns. It shares no kernel with the engine (no
// popcount, no word-wise AND, no tiles), so the SimdOps::gram entries of
// every level are held to it.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/bitmatrix.h"

namespace fdx::oracle {

struct BitMoments {
  std::vector<uint64_t> counts;     ///< k: rows with column x set
  std::vector<uint64_t> co_counts;  ///< k x k: rows with x and y set, y >= x
};

/// Counts over the matrix's rows() rows; the lower triangle stays zero.
inline BitMoments CountBitMoments(const BitMatrix& bits) {
  const size_t k = bits.cols();
  BitMoments out{std::vector<uint64_t>(k, 0),
                 std::vector<uint64_t>(k * k, 0)};
  // Raw pointers keep unoptimized sanitizer builds quick: this loop runs
  // once per set pair of every row.
  std::vector<size_t> set_columns(k);
  size_t* set = set_columns.data();
  uint64_t* counts = out.counts.data();
  uint64_t* co_counts = out.co_counts.data();
  for (size_t r = 0; r < bits.rows(); ++r) {
    size_t num_set = 0;
    for (size_t c = 0; c < k; ++c) {
      if (bits.Get(r, c)) set[num_set++] = c;
    }
    for (size_t a = 0; a < num_set; ++a) {
      ++counts[set[a]];
      uint64_t* row = co_counts + set[a] * k;
      for (size_t b = a; b < num_set; ++b) ++row[set[b]];
    }
  }
  return out;
}

}  // namespace fdx::oracle

#endif  // FDX_TESTS_GRAM_ORACLE_H_
