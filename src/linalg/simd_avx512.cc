// AVX-512 kernel table (F + BW + VPOPCNTDQ). Compiled with the matching
// -mavx512* flags and executed only after the runtime cpuid check in
// simd.cc passes all three features; no dynamic initializers here.
#if defined(FDX_HAVE_AVX512_BUILD)

#include <immintrin.h>

#include <cstring>

#include "linalg/simd.h"

namespace fdx {
namespace {

/// VPGATHERDD at width 4. Row ids are signed 32-bit gather indices, so
/// lanes with a row id of 2^31 or more are masked out of the gather and
/// read scalar. Narrow widths use the scalar gathers: the AVX2 narrow
/// gathers beat scalar on an AVX2 machine, but no AVX-512 machine has
/// measured these.
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
    table.gather_u8 = ScalarOps().gather_u8;
    table.gather_u16 = ScalarOps().gather_u16;
    table.gather_u32 = GatherCodesAvx512;
    table.pack_adjacent_equal = PackAdjacentEqualAvx512;
    table.popcount_words = PopcountWordsAvx512;
    table.popcount_and_words = PopcountAndWordsAvx512;
    return table;
  }();
  return ops;
}

}  // namespace simd_internal
}  // namespace fdx

#endif  // FDX_HAVE_AVX512_BUILD
