#ifndef FDX_CORE_PAIRS_H_
#define FDX_CORE_PAIRS_H_

#include <cstdint>
#include <vector>

#include "data/code_column.h"
#include "data/table.h"
#include "util/rng.h"

namespace fdx {

/// Stable counting sort of `shuffled` by the dictionary codes of one
/// column: `order` receives the permutation that std::stable_sort with
/// key `codes[r]` would produce (the null code first, then codes
/// ascending, ties kept in shuffle order). Codes are dense in
/// [0, cardinality) (see EncodedTable), so cardinality + 1 buckets cover
/// every key and the sort is O(n + cardinality) with no comparator
/// calls. The key is `code + 1` modulo 2^(8·width), so the width's
/// all-ones null code lands in bucket 0 at every width (see
/// data/code_column.h) and the order is the same at 1, 2 or 4 bytes.
/// `buckets` is caller-owned scratch, reused across calls.
///
/// Row indices are uint32 throughout the pair layer: the order arrays
/// are the hottest streamed data of the transform (every pass walks one
/// per column), and 4-byte indices halve that bandwidth.
/// PrepareTransformStreams rejects tables with more than UINT32_MAX rows.
void StableSortByCodes(CodeView codes, size_t cardinality,
                       const std::vector<uint32_t>& shuffled,
                       std::vector<uint32_t>* order,
                       std::vector<uint32_t>* buckets);

/// One sort-and-shift pass of Algorithm 2 for a single attribute: rows
/// sorted by the attribute's codes (radix, shuffle as tie breaker), each
/// sorted position paired with its successor (the last wraps to the
/// first). Pairs are never materialized: pair p joins sorted positions
/// s and s + 1 of order() (n wraps to 0), where s = p for an exact pass
/// and s = positions()[p] for a sampled one, so a pass costs no O(n)
/// pair-vector allocation; the pack kernels read them that way.
///
/// The object is reusable scratch: Reset() re-sorts for the next
/// attribute without reallocating.
class AttributePass {
 public:
  /// Sorts rows by one attribute's dictionary codes (dense in
  /// [0, cardinality), the width's null code for nulls). With max_pairs
  /// in (0, n)
  /// the pass emits max_pairs sampled positions chosen by a seeded
  /// reservoir over the sorted positions (the sampled variant of the
  /// transform, §5.4), emitted in ascending position order; otherwise all
  /// n adjacent pairs. The reservoir needs O(max_pairs) memory and its
  /// selection is a pure function of (n, max_pairs, attr_seed) —
  /// independent of how the rows were chunked — which is what lets the
  /// out-of-core path reproduce the in-memory sample exactly.
  void Reset(CodeView codes, size_t cardinality,
             const std::vector<uint32_t>& shuffled, size_t max_pairs,
             uint64_t attr_seed);

  size_t num_pairs() const { return num_pairs_; }
  bool sampled() const { return sampled_; }
  const std::vector<uint32_t>& order() const { return order_; }
  /// The sampled sorted positions, ascending (meaningful when sampled()).
  const std::vector<uint32_t>& positions() const { return positions_; }

 private:
  std::vector<uint32_t> order_;
  std::vector<uint32_t> buckets_;    ///< counting-sort scratch
  std::vector<uint32_t> positions_;  ///< sampled sorted positions
  size_t num_pairs_ = 0;
  bool sampled_ = false;
};

}  // namespace fdx

#endif  // FDX_CORE_PAIRS_H_
