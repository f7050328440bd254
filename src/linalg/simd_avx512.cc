// AVX-512 kernel table (F + BW + VPOPCNTDQ). Compiled with the matching
// -mavx512* flags and executed only after the runtime cpuid check in
// simd.cc passes all three features; no dynamic initializers here.
#if defined(FDX_HAVE_AVX512_BUILD)

#include <immintrin.h>

#include "linalg/simd.h"
#include "linalg/simd_gram.h"
#include "linalg/simd_panel.h"

namespace fdx {
namespace {

/// ORs the equality bits of two panel rows into `row`: 64 one-byte, 32
/// two-byte or 16 four-byte codes per compare, against the all-ones null
/// code of each width. Loads are masked to the codes, so nothing past a
/// row's codes is read.
inline void PanelRowMaskAvx512(const PanelView& panel, const uint8_t* a,
                               const uint8_t* b, uint64_t* row) {
  const __m512i null_v = _mm512_set1_epi8(-1);
  size_t at = 0;
  for (size_t i = 0; i < panel.ones; i += 64) {
    const unsigned len =
        panel.ones - i < 64 ? static_cast<unsigned>(panel.ones - i) : 64;
    const __mmask64 lanes = LowBits(~uint64_t{0}, len);
    const __m512i va = _mm512_maskz_loadu_epi8(lanes, a + i);
    const __m512i vb = _mm512_maskz_loadu_epi8(lanes, b + i);
    const __mmask64 eq = _mm512_mask_cmpeq_epi8_mask(
        _mm512_mask_cmpneq_epi8_mask(lanes, va, null_v), va, vb);
    OrMaskBits(row, at + i, eq, len);
  }
  a += panel.ones;
  b += panel.ones;
  at += panel.ones;
  for (size_t i = 0; i < panel.twos; i += 32) {
    const unsigned len =
        panel.twos - i < 32 ? static_cast<unsigned>(panel.twos - i) : 32;
    const __mmask32 lanes =
        static_cast<__mmask32>(LowBits(~uint64_t{0}, len));
    const __m512i va = _mm512_maskz_loadu_epi16(lanes, a + 2 * i);
    const __m512i vb = _mm512_maskz_loadu_epi16(lanes, b + 2 * i);
    const __mmask32 eq = _mm512_mask_cmpeq_epi16_mask(
        _mm512_mask_cmpneq_epi16_mask(lanes, va, null_v), va, vb);
    OrMaskBits(row, at + i, eq, len);
  }
  a += 2 * panel.twos;
  b += 2 * panel.twos;
  at += panel.twos;
  for (size_t i = 0; i < panel.fours; i += 16) {
    const unsigned len =
        panel.fours - i < 16 ? static_cast<unsigned>(panel.fours - i) : 16;
    const __mmask16 lanes =
        static_cast<__mmask16>(LowBits(~uint64_t{0}, len));
    const __m512i va = _mm512_maskz_loadu_epi32(lanes, a + 4 * i);
    const __m512i vb = _mm512_maskz_loadu_epi32(lanes, b + 4 * i);
    const __mmask16 eq = _mm512_mask_cmpeq_epi32_mask(
        _mm512_mask_cmpneq_epi32_mask(lanes, va, null_v), va, vb);
    OrMaskBits(row, at + i, eq, len);
  }
}

/// Whole row masks of short one-byte rows, 64 / stride pairs per compare:
/// copied rows `stride` (8 or 16) bytes apart share one vector, and each
/// pair's bits are its lane of the compare mask. Other shapes return 0.
size_t ShortRowMasksAvx512(const PanelView& panel, const uint8_t* a,
                           const uint8_t* b, size_t stride, size_t m,
                           uint64_t* rows) {
  if (panel.twos != 0 || panel.fours != 0 || stride > 16) return 0;
  const unsigned ones = static_cast<unsigned>(panel.ones);
  const uint64_t row_bits = LowBits(~uint64_t{0}, ones);
  uint64_t lane_bits = 0;
  for (size_t lane = 0; lane < 64; lane += stride) {
    lane_bits |= row_bits << lane;
  }
  const __mmask64 lanes = lane_bits;
  const __m512i null_v = _mm512_set1_epi8(-1);
  const size_t per = 64 / stride;
  size_t i = 0;
  for (; i + per <= m; i += per) {
    const __m512i va = _mm512_loadu_si512(a + i * stride);
    const __m512i vb = _mm512_loadu_si512(b + i * stride);
    const uint64_t eq = _mm512_mask_cmpeq_epi8_mask(
        _mm512_mask_cmpneq_epi8_mask(lanes, va, null_v), va, vb);
    for (size_t j = 0; j < per; ++j) {
      rows[i + j] = (eq >> (j * stride)) & row_bits;
    }
  }
  return i;
}

void PackPanelAvx512(const PanelView& panel, const PanelPairs& pairs,
                     uint64_t* words, size_t words_per_column,
                     uint64_t* scratch) {
  PackPanelWith(panel, pairs, words, words_per_column, scratch,
                [&panel](const uint8_t* a, const uint8_t* b, uint64_t* row) {
                  PanelRowMaskAvx512(panel, a, b, row);
                },
                [&panel](const uint8_t* a, const uint8_t* b, size_t stride,
                         size_t m, uint64_t* rows) {
                  return ShortRowMasksAvx512(panel, a, b, stride, m, rows);
                });
}

/// Eight words per step through VPOPCNTQ; the trailing words load
/// masked. A 4 x 4 tile's sixteen sums, four x vectors and a y vector
/// take 21 of the 32 zmm registers.
struct GramStepAvx512 {
  using Vec = __m512i;
  using Acc = __m512i;
  static constexpr size_t kWords = 8;
  static constexpr size_t kRunWords = kGramWordsPerBlock;
  static Acc Zero() { return _mm512_setzero_si512(); }
  static Vec Load(const uint64_t* p) {
    return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
  }
  static Vec LoadTail(const uint64_t* p, size_t n) {
    return _mm512_maskz_loadu_epi64(static_cast<__mmask8>((1u << n) - 1),
                                    reinterpret_cast<const void*>(p));
  }
  static Acc AndPopAdd(Acc acc, Vec a, Vec b) {
    return _mm512_add_epi64(acc,
                            _mm512_popcnt_epi64(_mm512_and_si512(a, b)));
  }
  /// Eight accumulators at a time into one vector of their eight
  /// totals: pair sums within each 128-bit lane, then two rounds across
  /// lanes. The zero-masked shuffles read no undefined vector, which
  /// GCC 12's unmasked ones do and then flag as uninitialized.
  template <size_t N>
  static void AddSums(const Acc (&acc)[N], uint64_t (&sums)[N]) {
    static_assert(N % 8 == 0, "AVX-512 tiles reduce eight sums at a time");
    const __mmask8 all = 0xFF;
    const auto pairs = [all](__m512i a, __m512i b) {
      return _mm512_add_epi64(_mm512_maskz_unpacklo_epi64(all, a, b),
                              _mm512_maskz_unpackhi_epi64(all, a, b));
    };
    const auto lanes = [all](__m512i a, __m512i b) {
      return _mm512_add_epi64(_mm512_maskz_shuffle_i64x2(all, a, b, 0x88),
                              _mm512_maskz_shuffle_i64x2(all, a, b, 0xDD));
    };
    for (size_t t = 0; t < N; t += 8) {
      const __m512i total = lanes(
          lanes(pairs(acc[t], acc[t + 1]), pairs(acc[t + 2], acc[t + 3])),
          lanes(pairs(acc[t + 4], acc[t + 5]), pairs(acc[t + 6], acc[t + 7])));
      uint64_t* out = sums + t;
      _mm512_storeu_si512(
          out, _mm512_add_epi64(_mm512_loadu_si512(out), total));
    }
  }
};

void GramAvx512(const uint64_t* words, size_t k, size_t words_per_column,
                uint64_t* counts, uint64_t* co_counts) {
  GramWith<GramStepAvx512, 4, 4>(words, k, words_per_column, counts,
                                 co_counts);
}

}  // namespace

namespace simd_internal {

const SimdOps& Avx512Ops() {
  static const SimdOps ops = [] {
    SimdOps table;
    table.level = SimdLevel::kAvx512;
    // Every AVX-512 CPU has AVX2, whose column kernels (the VPGATHERDD
    // gathers and the adjacent-equality pack) time within a few percent
    // of 512-bit ones on a 1M-row column; the scalar ones stand in when
    // AVX2 is not built.
#if defined(FDX_HAVE_AVX2_BUILD)
    const SimdOps& column = Avx2Ops();
#else
    const SimdOps& column = ScalarOps();
#endif
    table.gather_u8 = column.gather_u8;
    table.gather_u16 = column.gather_u16;
    table.gather_u32 = column.gather_u32;
    table.pack_adjacent_equal = column.pack_adjacent_equal;
    table.pack_panel = PackPanelAvx512;
    table.gram = GramAvx512;
    return table;
  }();
  return ops;
}

}  // namespace simd_internal
}  // namespace fdx

#endif  // FDX_HAVE_AVX512_BUILD
