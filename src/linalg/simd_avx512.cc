// AVX-512 kernel table (F + BW + VPOPCNTDQ). Compiled with the matching
// -mavx512* flags and executed only after the runtime cpuid check in
// simd.cc passes all three features; no dynamic initializers here.
#if defined(FDX_HAVE_AVX512_BUILD)

#include <immintrin.h>

#include <cstring>

#include "linalg/simd.h"
#include "linalg/simd_panel.h"

namespace fdx {
namespace {

/// VPGATHERDD at width 4. Row ids are signed 32-bit gather indices, so
/// lanes with a row id of 2^31 or more are masked out of the gather and
/// read scalar. Narrow widths use the AVX2 table's gathers (see
/// Avx512Ops).
void GatherCodesAvx512(const uint8_t* codes, const uint32_t* order, size_t n,
                       int32_t* g) {
  const auto load = [codes](uint32_t row) {
    int32_t code;
    std::memcpy(&code, codes + static_cast<size_t>(row) * 4, 4);
    return code;
  };
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i idx =
        _mm512_loadu_si512(reinterpret_cast<const void*>(order + i));
    const __mmask16 safe = _mm512_cmpge_epi32_mask(idx, _mm512_setzero_si512());
    const __m512i v = _mm512_mask_i32gather_epi32(
        _mm512_setzero_si512(), safe, idx,
        reinterpret_cast<const void*>(codes), 4);
    _mm512_storeu_si512(reinterpret_cast<void*>(g + i), v);
    if (safe != 0xFFFF) {
      for (size_t j = i; j < i + 16; ++j) g[j] = load(order[j]);
    }
  }
  for (; i < n; ++i) g[i] = load(order[i]);
}

size_t PackAdjacentEqualAvx512(const int32_t* g, size_t n, int32_t null_code,
                               uint64_t* words) {
  const size_t nwords = (n - 1) / 64;
  const __m512i null_v = _mm512_set1_epi32(null_code);
  for (size_t w = 0; w < nwords; ++w) {
    const int32_t* base = g + w * 64;
    uint64_t word = 0;
    for (unsigned t = 0; t < 4; ++t) {
      const __m512i v1 =
          _mm512_loadu_si512(reinterpret_cast<const void*>(base + 16 * t));
      const __m512i v2 = _mm512_loadu_si512(
          reinterpret_cast<const void*>(base + 16 * t + 1));
      const __mmask16 eq = _mm512_cmpeq_epi32_mask(v1, v2);
      const __mmask16 not_null = _mm512_cmpneq_epi32_mask(v1, null_v);
      word |= static_cast<uint64_t>(
                  static_cast<uint16_t>(eq & not_null))
              << (16 * t);
    }
    words[w] = word;
  }
  return nwords * 64;
}

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

uint64_t PopcountWordsAvx512(const uint64_t* a, size_t len) {
  __m512i acc = _mm512_setzero_si512();
  size_t w = 0;
  for (; w + 8 <= len; w += 8) {
    const __m512i v =
        _mm512_loadu_si512(reinterpret_cast<const void*>(a + w));
    acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
  }
  uint64_t total = static_cast<uint64_t>(_mm512_reduce_add_epi64(acc));
  for (; w < len; ++w) {
    total += static_cast<uint64_t>(__builtin_popcountll(a[w]));
  }
  return total;
}

uint64_t PopcountAndWordsAvx512(const uint64_t* a, const uint64_t* b,
                                size_t len) {
  __m512i acc = _mm512_setzero_si512();
  size_t w = 0;
  for (; w + 8 <= len; w += 8) {
    const __m512i va =
        _mm512_loadu_si512(reinterpret_cast<const void*>(a + w));
    const __m512i vb =
        _mm512_loadu_si512(reinterpret_cast<const void*>(b + w));
    acc = _mm512_add_epi64(
        acc, _mm512_popcnt_epi64(_mm512_and_si512(va, vb)));
  }
  uint64_t total = static_cast<uint64_t>(_mm512_reduce_add_epi64(acc));
  for (; w < len; ++w) {
    total += static_cast<uint64_t>(__builtin_popcountll(a[w] & b[w]));
  }
  return total;
}

}  // namespace

namespace simd_internal {

const SimdOps& Avx512Ops() {
  static const SimdOps ops = [] {
    SimdOps table;
    table.level = SimdLevel::kAvx512;
    // Every AVX-512 CPU has AVX2, whose VPGATHERDD narrow gathers beat
    // the scalar loops on this level's machines too.
#if defined(FDX_HAVE_AVX2_BUILD)
    table.gather_u8 = Avx2Ops().gather_u8;
    table.gather_u16 = Avx2Ops().gather_u16;
#else
    table.gather_u8 = ScalarOps().gather_u8;
    table.gather_u16 = ScalarOps().gather_u16;
#endif
    table.gather_u32 = GatherCodesAvx512;
    table.pack_adjacent_equal = PackAdjacentEqualAvx512;
    table.pack_panel = PackPanelAvx512;
    table.popcount_words = PopcountWordsAvx512;
    table.popcount_and_words = PopcountAndWordsAvx512;
    return table;
  }();
  return ops;
}

}  // namespace simd_internal
}  // namespace fdx

#endif  // FDX_HAVE_AVX512_BUILD
