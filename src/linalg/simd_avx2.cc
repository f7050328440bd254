// AVX2 kernel table. This translation unit is compiled with -mavx2 (see
// src/linalg/CMakeLists.txt) and must only be *executed* after the
// runtime cpuid check in simd.cc — keep it free of globals with dynamic
// initializers so nothing here runs on load.
#if defined(FDX_HAVE_AVX2_BUILD)

#include <immintrin.h>

#include <cstring>

#include "linalg/simd.h"
#include "linalg/simd_gram.h"
#include "linalg/simd_panel.h"

namespace fdx {
namespace {

/// Code `row` of a column of T-wide codes, widened (the scalar lanes).
template <typename T>
inline int32_t LoadWidened(const uint8_t* codes, uint32_t row) {
  T code;
  std::memcpy(&code, codes + static_cast<size_t>(row) * sizeof(T),
              sizeof(T));
  return static_cast<int32_t>(code);
}

/// VPGATHERDD at every code width. Each lane loads the 4 bytes that end
/// at its code (a T-wide code sits in the window's top bytes; at width 4
/// the window is the code) and a shift drops the bytes below it. Row ids
/// are signed 32-bit gather indices, so a lane is masked out of the
/// gather and read scalar when its window would start before the column
/// (the first 4 / sizeof(T) - 1 rows) or its row id is 2^31 or more; no
/// load touches memory outside the column.
template <typename T>
void GatherCodesAvx2(const uint8_t* codes, const uint32_t* order, size_t n,
                     int32_t* g) {
  constexpr uint32_t kBack = 4 - sizeof(T);
  // Lanes with a row id above this are gathered.
  constexpr int kLastUnsafe =
      static_cast<int>((kBack + sizeof(T) - 1) / sizeof(T)) - 1;
  const __m256i last_unsafe = _mm256_set1_epi32(kLastUnsafe);
  // The window base as an address, not pointer arithmetic: it may lie
  // before the column, and only unmasked lanes are ever loaded.
  const int* base = reinterpret_cast<const int*>(
      reinterpret_cast<uintptr_t>(codes) - kBack);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(order + i));
    const __m256i safe = _mm256_cmpgt_epi32(idx, last_unsafe);
    const __m256i v = _mm256_mask_i32gather_epi32(
        _mm256_setzero_si256(), base, idx, safe, sizeof(T));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(g + i),
                        _mm256_srli_epi32(v, 8 * kBack));
    if (_mm256_movemask_ps(_mm256_castsi256_ps(safe)) != 0xFF) {
      for (size_t j = i; j < i + 8; ++j) {
        g[j] = LoadWidened<T>(codes, order[j]);
      }
    }
  }
  for (; i < n; ++i) g[i] = LoadWidened<T>(codes, order[i]);
}

size_t PackAdjacentEqualAvx2(const int32_t* g, size_t n, int32_t null_code,
                             uint64_t* words) {
  const size_t nwords = (n - 1) / 64;
  const __m256i null_v = _mm256_set1_epi32(null_code);
  for (size_t w = 0; w < nwords; ++w) {
    const int32_t* base = g + w * 64;
    uint64_t word = 0;
    for (unsigned t = 0; t < 8; ++t) {
      // Unaligned loads of g[j] and g[j+1]; the +1 load's last lane is
      // g[w*64 + 63 + 1] <= g[nwords*64] <= g[n-1], always in bounds.
      const __m256i v1 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(base + 8 * t));
      const __m256i v2 = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(base + 8 * t + 1));
      const __m256i eq = _mm256_cmpeq_epi32(v1, v2);
      const __m256i is_null = _mm256_cmpeq_epi32(v1, null_v);
      const __m256i bits = _mm256_andnot_si256(is_null, eq);
      const uint32_t mask = static_cast<uint32_t>(
          _mm256_movemask_ps(_mm256_castsi256_ps(bits)));
      word |= static_cast<uint64_t>(mask) << (8 * t);
    }
    words[w] = word;
  }
  return nwords * 64;
}

/// ORs the equality bits of two panel rows into `row`: 32 one-byte, 16
/// two-byte or 8 four-byte codes per compare, against the all-ones null
/// code of each width. A width's last load may run up to 31 bytes past
/// its codes (within kPanelTailBytes); the bits it adds there are cut.
inline void PanelRowMaskAvx2(const PanelView& panel, const uint8_t* a,
                             const uint8_t* b, uint64_t* row) {
  const __m256i null_v = _mm256_set1_epi8(-1);
  const auto equal = [](__m256i is_null, __m256i is_equal) {
    return _mm256_andnot_si256(is_null, is_equal);
  };
  size_t at = 0;
  for (size_t i = 0; i < panel.ones; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const __m256i eq = equal(_mm256_cmpeq_epi8(va, null_v),
                             _mm256_cmpeq_epi8(va, vb));
    const unsigned len =
        panel.ones - i < 32 ? static_cast<unsigned>(panel.ones - i) : 32;
    const uint32_t bits = static_cast<uint32_t>(_mm256_movemask_epi8(eq));
    OrMaskBits(row, at + i, LowBits(bits, len), len);
  }
  a += panel.ones;
  b += panel.ones;
  at += panel.ones;
  for (size_t i = 0; i < panel.twos; i += 16) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 2 * i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + 2 * i));
    const __m256i eq = equal(_mm256_cmpeq_epi16(va, null_v),
                             _mm256_cmpeq_epi16(va, vb));
    // Saturating to bytes keeps each lane's 0 / -1; per 128-bit lane the
    // pack repeats its 8 codes, so every other byte run is a copy.
    const uint32_t mask = static_cast<uint32_t>(
        _mm256_movemask_epi8(_mm256_packs_epi16(eq, eq)));
    const uint64_t bits = (mask & 0xFF) | ((mask >> 8) & 0xFF00);
    const unsigned len =
        panel.twos - i < 16 ? static_cast<unsigned>(panel.twos - i) : 16;
    OrMaskBits(row, at + i, LowBits(bits, len), len);
  }
  a += 2 * panel.twos;
  b += 2 * panel.twos;
  at += panel.twos;
  for (size_t i = 0; i < panel.fours; i += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + 4 * i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + 4 * i));
    const __m256i eq = equal(_mm256_cmpeq_epi32(va, null_v),
                             _mm256_cmpeq_epi32(va, vb));
    const uint32_t bits = static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(eq)));
    const unsigned len =
        panel.fours - i < 8 ? static_cast<unsigned>(panel.fours - i) : 8;
    OrMaskBits(row, at + i, LowBits(bits, len), len);
  }
}

/// Whole row masks of short one-byte rows, 32 / stride pairs per compare
/// (see ShortRowMasksAvx512). Other shapes return 0.
size_t ShortRowMasksAvx2(const PanelView& panel, const uint8_t* a,
                         const uint8_t* b, size_t stride, size_t m,
                         uint64_t* rows) {
  if (panel.twos != 0 || panel.fours != 0 || stride > 16) return 0;
  const unsigned ones = static_cast<unsigned>(panel.ones);
  const uint32_t row_bits = static_cast<uint32_t>(LowBits(~uint64_t{0}, ones));
  uint32_t lanes = 0;
  for (size_t lane = 0; lane < 32; lane += stride) lanes |= row_bits << lane;
  const __m256i null_v = _mm256_set1_epi8(-1);
  const size_t per = 32 / stride;
  size_t i = 0;
  for (; i + per <= m; i += per) {
    const __m256i va = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(a + i * stride));
    const __m256i vb = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(b + i * stride));
    const __m256i eq = _mm256_andnot_si256(_mm256_cmpeq_epi8(va, null_v),
                                           _mm256_cmpeq_epi8(va, vb));
    const uint32_t bits =
        static_cast<uint32_t>(_mm256_movemask_epi8(eq)) & lanes;
    for (size_t j = 0; j < per; ++j) {
      rows[i + j] = (bits >> (j * stride)) & row_bits;
    }
  }
  return i;
}

void PackPanelAvx2(const PanelView& panel, const PanelPairs& pairs,
                   uint64_t* words, size_t words_per_column,
                   uint64_t* scratch) {
  PackPanelWith(panel, pairs, words, words_per_column, scratch,
                [&panel](const uint8_t* a, const uint8_t* b, uint64_t* row) {
                  PanelRowMaskAvx2(panel, a, b, row);
                },
                [&panel](const uint8_t* a, const uint8_t* b, size_t stride,
                         size_t m, uint64_t* rows) {
                  return ShortRowMasksAvx2(panel, a, b, stride, m, rows);
                });
}

/// Four words per step through PSHUFB nibble-table popcounts (Mula),
/// summed per byte: a byte lane gains at most 8 per step, so a run of 31
/// steps cannot overflow it, and PSADBW folds each run once instead of
/// once per step. A 2 x 4 tile's eight sums, two x vectors, a y vector,
/// the two table constants and the popcount's temporaries fit the
/// sixteen ymm registers.
struct GramStepAvx2 {
  using Vec = __m256i;
  using Acc = __m256i;
  static constexpr size_t kWords = 4;
  static constexpr size_t kRunWords = 31 * kWords;
  static Acc Zero() { return _mm256_setzero_si256(); }
  static Vec Load(const uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static Vec LoadTail(const uint64_t* p, size_t n) {
    const __m256i lanes = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(static_cast<long long>(n)),
        _mm256_setr_epi64x(0, 1, 2, 3));
    return _mm256_maskload_epi64(reinterpret_cast<const long long*>(p),
                                 lanes);
  }
  static Acc AndPopAdd(Acc acc, Vec a, Vec b) {
    const __m256i table = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low_mask = _mm256_set1_epi8(0x0f);
    const __m256i v = _mm256_and_si256(a, b);
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
    return _mm256_add_epi8(
        acc, _mm256_add_epi8(_mm256_shuffle_epi8(table, lo),
                             _mm256_shuffle_epi8(table, hi)));
  }
  /// Each run's byte counts fold with PSADBW, four accumulators at a
  /// time into one vector of their four totals.
  template <size_t N>
  static void AddSums(const Acc (&acc)[N], uint64_t (&sums)[N]) {
    static_assert(N % 4 == 0, "AVX2 tiles reduce four sums at a time");
    const __m256i zero = _mm256_setzero_si256();
    for (size_t t = 0; t < N; t += 4) {
      const __m256i a = _mm256_sad_epu8(acc[t], zero);
      const __m256i b = _mm256_sad_epu8(acc[t + 1], zero);
      const __m256i c = _mm256_sad_epu8(acc[t + 2], zero);
      const __m256i d = _mm256_sad_epu8(acc[t + 3], zero);
      // Per 128-bit half: the pair sums of a and b, then of c and d.
      const __m256i ab = _mm256_add_epi64(_mm256_unpacklo_epi64(a, b),
                                          _mm256_unpackhi_epi64(a, b));
      const __m256i cd = _mm256_add_epi64(_mm256_unpacklo_epi64(c, d),
                                          _mm256_unpackhi_epi64(c, d));
      const __m256i total =
          _mm256_add_epi64(_mm256_permute2x128_si256(ab, cd, 0x20),
                           _mm256_permute2x128_si256(ab, cd, 0x31));
      __m256i* out = reinterpret_cast<__m256i*>(sums + t);
      _mm256_storeu_si256(out,
                          _mm256_add_epi64(_mm256_loadu_si256(out), total));
    }
  }
};

void GramAvx2(const uint64_t* words, size_t k, size_t words_per_column,
              uint64_t* counts, uint64_t* co_counts) {
  GramWith<GramStepAvx2, 2, 4>(words, k, words_per_column, counts,
                               co_counts);
}

}  // namespace

namespace simd_internal {

const SimdOps& Avx2Ops() {
  static const SimdOps ops = [] {
    SimdOps table;
    table.level = SimdLevel::kAvx2;
    table.gather_u8 = GatherCodesAvx2<uint8_t>;
    table.gather_u16 = GatherCodesAvx2<uint16_t>;
    table.gather_u32 = GatherCodesAvx2<uint32_t>;
    table.pack_adjacent_equal = PackAdjacentEqualAvx2;
    table.pack_panel = PackPanelAvx2;
    table.gram = GramAvx2;
    return table;
  }();
  return ops;
}

}  // namespace simd_internal
}  // namespace fdx

#endif  // FDX_HAVE_AVX2_BUILD
