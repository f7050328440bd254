#ifndef FDX_LINALG_SIMD_H_
#define FDX_LINALG_SIMD_H_

#include <cstddef>
#include <cstdint>

/// Runtime-dispatched SIMD kernels for the two integer hot loops of the
/// pipeline: the pair-transform bit-pack (off a row-major code panel, or
/// gather at code width 1, 2 or 4 + adjacent-equality compare) and the
/// AND+popcount Gram of BitMatrix. Every kernel computes exact
/// integer results, so the scalar fallback and the vector paths are
/// bit-identical by construction —
/// dispatch changes speed, never bytes. The scalar path is always built;
/// the AVX2 and AVX-512 translation units are compiled only where the
/// compiler accepts the flags (mirroring the -mpopcnt gate in the
/// top-level CMakeLists) and selected only after __builtin_cpu_supports
/// agrees at runtime.
namespace fdx {

/// A row-major panel of dictionary codes as the panel pack reads it. Row
/// r starts at `rows + r * stride` and holds `ones` one-byte codes, then
/// `twos` two-byte codes, then `fours` four-byte codes (any alignment;
/// each width's all-ones value is its null code). Panel column j is the
/// j-th code of a row in that order; its bits go to output column
/// `column_of[j]`. Vector kernels load whole vectors, so the buffer must
/// extend kPanelTailBytes past the last row's codes.
struct PanelView {
  const uint8_t* rows = nullptr;
  size_t stride = 0;
  size_t ones = 0;
  size_t twos = 0;
  size_t fours = 0;
  const uint32_t* column_of = nullptr;
};

/// Bytes a panel kernel may read past a row's codes (one AVX2 vector).
inline constexpr size_t kPanelTailBytes = 32;

/// The pairs of one attribute pass: pair p joins the rows at sorted
/// positions s and s + 1 of `order` (n rows; position n wraps to 0),
/// where s = positions[p], or s = p when `positions` is null.
struct PanelPairs {
  const uint32_t* order = nullptr;
  size_t n = 0;
  const uint32_t* positions = nullptr;
  size_t num_pairs = 0;
};

/// Words of scratch the panel pack needs: one 64-pair block of row masks
/// (ceil(k / 64) words per pair) and copies of the block's rows (two per
/// pair, each padded to whole words, plus a vector's tail).
/// `row_bytes` is the panel's code bytes per row (Σ width over columns).
inline size_t PanelScratchWords(size_t k, size_t row_bytes) {
  return 64 * ((k + 63) / 64) + 128 * ((row_bytes + 7) / 8) +
         kPanelTailBytes / 8;
}

/// Words of every column a gram tile walks before its sums reduce
/// (4 KB per column): each tile pays its reduces once per block, and a
/// 12k-pair pass's 188-word columns form one block.
inline constexpr size_t kGramWordsPerBlock = 512;

enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  /// Requires AVX-512 F+BW+VPOPCNTDQ (the Gram kernel leans on VPOPCNTQ).
  kAvx512 = 2,
};

/// Kernel table. All pointers are always valid (scalar at minimum).
struct SimdOps {
  SimdLevel level = SimdLevel::kScalar;

  /// g[i] = codes[order[i]] for i in [0, n), widened to int32: the
  /// sorted-order gather that feeds the pack compare. `codes` holds codes
  /// of 1, 2 or 4 bytes (gather_u8, gather_u16, gather_u32; any
  /// alignment). Narrow codes are zero-extended, so their all-ones null
  /// code reads 255 or 65535 in `g` (see data/code_column.h).
  using GatherFn = void (*)(const uint8_t* codes, const uint32_t* order,
                            size_t n, int32_t* g);
  GatherFn gather_u8 = nullptr;
  GatherFn gather_u16 = nullptr;
  GatherFn gather_u32 = nullptr;

  /// The gather for codes of `width` bytes (1, 2 or 4).
  GatherFn gather(unsigned width) const {
    return width == 1 ? gather_u8 : width == 2 ? gather_u16 : gather_u32;
  }

  /// Packs the adjacent-equality bits of a contiguous code stream:
  /// bit j = (g[j] != null_code && g[j] == g[j+1]) for j in [0, n-1),
  /// matching EqualCodes(g[j], g[j+1]). Writes the first
  /// floor((n-1)/64) full words into `words` and returns the number of
  /// bits written (a multiple of 64 <= n-1); the caller emits the
  /// remaining tail bits (and the wrap pair) itself.
  size_t (*pack_adjacent_equal)(const int32_t* g, size_t n, int32_t null_code,
                                uint64_t* words) = nullptr;

  /// Packs one attribute pass's equality bits off a code panel: bit p of
  /// output column column_of[j] is 1 when pair p's two rows hold an
  /// equal, non-null code j (EqualCodes). Each pair costs one load and
  /// one compare per vector of codes; each 64-pair block of row masks is
  /// then transposed into column words. Writes ceil(num_pairs / 64)
  /// words per column at `words + column * words_per_column`, bits at or
  /// past num_pairs zero. `scratch` holds PanelScratchWords(k, row
  /// bytes) words.
  void (*pack_panel)(const PanelView& panel, const PanelPairs& pairs,
                     uint64_t* words, size_t words_per_column,
                     uint64_t* scratch) = nullptr;

  /// The AND+popcount Gram of a column-major bit matrix of k columns
  /// (column c at `words + c * words_per_column`), added into the
  /// caller's accumulators:
  ///   counts[x]          += popcount(column x)
  ///   co_counts[x*k + y] += popcount(column x AND column y)   for y >= x
  /// (upper triangle, diagonal included). Column tiles walk blocks of
  /// kGramWordsPerBlock words, and every tile's running sums stay in
  /// registers through a block (linalg/simd_gram.h).
  void (*gram)(const uint64_t* words, size_t k, size_t words_per_column,
               uint64_t* counts, uint64_t* co_counts) = nullptr;
};

/// Name of a level: "scalar", "avx2", "avx512".
const char* SimdLevelName(SimdLevel level);

/// Best level this binary supports on this CPU (build-gated and
/// cpuid-gated). Constant for the process lifetime.
SimdLevel DetectedSimdLevel();

/// The level kernels currently dispatch to: DetectedSimdLevel() unless a
/// SetSimdLevel override clamped it.
SimdLevel ActiveSimdLevel();

/// Test/bench override. The request is clamped to DetectedSimdLevel()
/// (asking for AVX2 on a non-AVX2 machine yields scalar); returns the
/// level actually in effect. Thread-safe, but callers that flip levels
/// mid-run own the determinism argument (outputs are bit-identical at
/// every level, so flipping is safe — just not faster).
SimdLevel SetSimdLevel(SimdLevel level);

/// Kernel table for ActiveSimdLevel().
const SimdOps& ActiveSimdOps();

/// Kernel table for a specific level (clamped to DetectedSimdLevel()).
const SimdOps& SimdOpsForLevel(SimdLevel level);

namespace simd_internal {
/// Per-level kernel tables. Scalar is always defined; the vector tables
/// are defined only in builds whose compiler accepted the flags (the
/// dispatcher references them under the matching FDX_HAVE_*_BUILD
/// macro, so unbuilt levels are never linked).
const SimdOps& ScalarOps();
const SimdOps& Avx2Ops();
const SimdOps& Avx512Ops();
}  // namespace simd_internal

}  // namespace fdx

#endif  // FDX_LINALG_SIMD_H_
