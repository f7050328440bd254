#ifndef FDX_LINALG_SIMD_PANEL_H_
#define FDX_LINALG_SIMD_PANEL_H_

// The part of every pack_panel entry that does not depend on the ISA:
// the pair walk, the prefetch, the 64-pair blocking, the 64x64 bit
// transpose and the scatter into output columns. Each kernel TU
// instantiates PackPanelWith with its own row-mask routine, compiled
// under that TU's flags. Everything here has internal linkage and
// instantiates no standard-library template, so the linker can never
// fold a vector-compiled copy into another TU's code.

#include <cstddef>
#include <cstdint>

#include "linalg/simd.h"

namespace fdx {
namespace {

/// ORs the low `nbits` bits of `bits` (the rest zero) into a row mask at
/// bit `at`. Word w of a row mask sits at row[64 * w]: a block's masks
/// are stored one 64-word group per 64 columns, ready to transpose.
inline void OrMaskBits(uint64_t* row, size_t at, uint64_t bits,
                       unsigned nbits) {
  const size_t w = at >> 6;
  const unsigned shift = static_cast<unsigned>(at & 63);
  row[64 * w] |= bits << shift;
  if (shift + nbits > 64) row[64 * (w + 1)] |= bits >> (64 - shift);
}

/// `bits` with every bit at or above `len` (1..64) cleared.
inline uint64_t LowBits(uint64_t bits, unsigned len) {
  return len >= 64 ? bits : bits & ((uint64_t{1} << len) - 1);
}

/// One stage of Transpose64 over words [0, Words).
template <unsigned J, unsigned Words>
inline void TransposeStage(uint64_t* a, uint64_t mask) {
  for (unsigned base = 0; base < Words; base += 2 * J) {
    for (unsigned i = base; i < base + J; ++i) {
      const uint64_t t = ((a[i] >> J) ^ a[i + J]) & mask;
      a[i + J] ^= t;
      a[i] ^= t << J;
    }
  }
}

/// Words a stage of span `span` must visit when only the first `live`
/// columns (a power of two) can hold bits: see TransposeLive.
constexpr unsigned LiveWords(unsigned live, unsigned span) {
  return live > 2 * span ? live : 2 * span;
}

/// Transposes a 64x64 bit matrix in place: bit j of a[p] moves to bit p
/// of a[j] (recursive swaps of off-diagonal blocks, Hacker's Delight
/// 7-3), when no a[p] has a bit at or above `Live`. Once the stage of
/// span J has run, column j's bits sit in words whose index agrees with
/// j from bit log2(J) up, so every word at or past max(J, Live) is zero
/// and the later stages skip it: at Live = 16 a block swaps 80 word
/// pairs, not 192. The bounds are constants so each stage unrolls.
template <unsigned Live>
inline void TransposeLive(uint64_t* a) {
  TransposeStage<32, 64>(a, 0x00000000FFFFFFFFull);
  TransposeStage<16, LiveWords(Live, 16)>(a, 0x0000FFFF0000FFFFull);
  TransposeStage<8, LiveWords(Live, 8)>(a, 0x00FF00FF00FF00FFull);
  TransposeStage<4, LiveWords(Live, 4)>(a, 0x0F0F0F0F0F0F0F0Full);
  TransposeStage<2, LiveWords(Live, 2)>(a, 0x3333333333333333ull);
  TransposeStage<1, LiveWords(Live, 1)>(a, 0x5555555555555555ull);
}

/// Transposes a block of row masks whose bits are all below `cols`.
inline void Transpose64(uint64_t* a, unsigned cols) {
  if (cols <= 16) {
    TransposeLive<16>(a);
  } else {
    TransposeLive<64>(a);
  }
}

/// Pairs between a row's prefetch and its compare.
constexpr size_t kPanelPrefetchPairs = 128;

/// Widest row PackPanelWith copies out of the panel before comparing.
constexpr size_t kPanelCopyBytes = 64;

inline void PrefetchRow(const uint8_t* row, size_t bytes) {
  for (size_t off = 0; off < bytes; off += 64) __builtin_prefetch(row + off);
  __builtin_prefetch(row + bytes - 1);
}

/// Copies a row's codes in whole 8-byte words: up to 7 bytes past them,
/// within kPanelTailBytes.
inline void CopyRow(uint8_t* dst, const uint8_t* src, size_t bytes) {
  for (size_t off = 0; off < bytes; off += 8) {
    uint64_t word;
    __builtin_memcpy(&word, src + off, 8);
    __builtin_memcpy(dst + off, &word, 8);
  }
}

/// The pack_panel contract (linalg/simd.h) around two routines of the
/// kernel's ISA: `row_mask(a, b, row)` ORs the equality bits of panel
/// rows `a` and `b` into the zeroed row mask `row` (word stride 64, see
/// OrMaskBits); and `short_rows(a, b, stride, m, rows)` may write the
/// whole row masks of the first pairs of a block whose copied rows sit
/// `stride` bytes apart (pair i's at a + i·stride and b + i·stride) and
/// returns how many it wrote (0 = none; the rest go through row_mask).
/// Neither sets a bit past the row's codes.
template <typename RowMask, typename ShortRows>
void PackPanelWith(const PanelView& panel, const PanelPairs& pairs,
                   uint64_t* words, size_t words_per_column,
                   uint64_t* scratch, RowMask row_mask,
                   ShortRows short_rows) {
  const size_t k = panel.ones + panel.twos + panel.fours;
  const size_t groups = (k + 63) / 64;
  const size_t row_bytes = panel.ones + 2 * panel.twos + 4 * panel.fours;
  const size_t copy_stride = (row_bytes + 7) / 8 * 8;
  uint8_t* copies = reinterpret_cast<uint8_t*>(scratch + 64 * groups);
  // Rows of one cache line are copied out, so a block's misses overlap;
  // wider rows are compared in place, where the prefetch covers them and
  // a copy would cost more than it hides.
  const bool copy = row_bytes <= kPanelCopyBytes;
  const bool sampled = pairs.positions != nullptr;
  const size_t n = pairs.n;
  const size_t num_pairs = pairs.num_pairs;
  const auto row_at = [&](size_t s) {
    return panel.rows +
           static_cast<size_t>(pairs.order[s == n ? 0 : s]) * panel.stride;
  };
  const auto first = [&](size_t p) {
    return sampled ? size_t{pairs.positions[p]} : p;
  };
  // Rows of the pairs [lo, hi), prefetched in one burst; an exact pass's
  // first row is the previous pair's second.
  const auto prefetch = [&](size_t lo, size_t hi) {
    for (size_t p = lo; p < hi && p < num_pairs; ++p) {
      const size_t s = first(p);
      if (sampled) PrefetchRow(row_at(s), row_bytes);
      PrefetchRow(row_at(s + 1), row_bytes);
    }
  };
  prefetch(0, kPanelPrefetchPairs);
  for (size_t p0 = 0; p0 < num_pairs; p0 += 64) {
    const size_t m = num_pairs - p0 < 64 ? num_pairs - p0 : 64;
    prefetch(p0 + kPanelPrefetchPairs, p0 + kPanelPrefetchPairs + 64);
    // Copy i holds row i of the block's sorted run, so pair i joins
    // copies i and i + 1 (exact), or the first row of pair i, whose
    // second is copy 64 + i (sampled).
    const uint8_t* second_copies = copies + (sampled ? 64 : 1) * copy_stride;
    size_t done = 0;
    if (copy) {
      if (sampled) {
        for (size_t i = 0; i < m; ++i) {
          const size_t s = first(p0 + i);
          CopyRow(copies + i * copy_stride, row_at(s), row_bytes);
          CopyRow(copies + (64 + i) * copy_stride, row_at(s + 1), row_bytes);
        }
      } else {
        for (size_t i = 0; i <= m; ++i) {
          CopyRow(copies + i * copy_stride, row_at(p0 + i), row_bytes);
        }
      }
      done = short_rows(copies, second_copies, copy_stride, m, scratch);
    }
    for (size_t i = done; i < m; ++i) {
      const uint8_t* a;
      const uint8_t* b;
      if (copy) {
        a = copies + i * copy_stride;
        b = second_copies + i * copy_stride;
      } else {
        const size_t s = first(p0 + i);
        a = row_at(s);
        b = row_at(s + 1);
      }
      uint64_t* row = scratch + i;
      for (size_t g = 0; g < groups; ++g) row[64 * g] = 0;
      row_mask(a, b, row);
    }
    for (size_t i = m; i < 64; ++i) {
      for (size_t g = 0; g < groups; ++g) scratch[64 * g + i] = 0;
    }
    for (size_t g = 0; g < groups; ++g) {
      uint64_t* block = scratch + 64 * g;
      const size_t cols = k - 64 * g < 64 ? k - 64 * g : 64;
      Transpose64(block, static_cast<unsigned>(cols));
      for (size_t j = 0; j < cols; ++j) {
        words[panel.column_of[64 * g + j] * words_per_column + p0 / 64] =
            block[j];
      }
    }
  }
}

}  // namespace
}  // namespace fdx

#endif  // FDX_LINALG_SIMD_PANEL_H_
