#include "linalg/simd.h"

#include <atomic>
#include <cstring>

#include "linalg/simd_gram.h"
#include "linalg/simd_panel.h"

namespace fdx {

namespace {

template <typename T>
void GatherCodesScalar(const uint8_t* codes, const uint32_t* order, size_t n,
                       int32_t* g) {
  for (size_t i = 0; i < n; ++i) {
    T code;
    std::memcpy(&code, codes + static_cast<size_t>(order[i]) * sizeof(T),
                sizeof(T));
    g[i] = static_cast<int32_t>(code);
  }
}

size_t PackAdjacentEqualScalar(const int32_t* g, size_t n, int32_t null_code,
                               uint64_t* words) {
  const size_t nwords = (n - 1) / 64;
  for (size_t w = 0; w < nwords; ++w) {
    const int32_t* base = g + w * 64;
    uint64_t word = 0;
    for (unsigned t = 0; t < 64; ++t) {
      const uint64_t bit =
          (base[t] != null_code && base[t] == base[t + 1]) ? 1 : 0;
      word |= bit << t;
    }
    words[w] = word;
  }
  return nwords * 64;
}

/// ORs the equality bits of `count` T-wide codes of two panel rows into
/// `row` from bit `at` on; a code matches only an equal non-null code.
template <typename T>
void PanelRowBitsScalar(const uint8_t* a, const uint8_t* b, size_t count,
                        size_t at, uint64_t* row) {
  for (size_t i = 0; i < count; ++i) {
    T x;
    T y;
    std::memcpy(&x, a + i * sizeof(T), sizeof(T));
    std::memcpy(&y, b + i * sizeof(T), sizeof(T));
    if (x != static_cast<T>(~T{0}) && x == y) OrMaskBits(row, at + i, 1, 1);
  }
}

void PackPanelScalar(const PanelView& panel, const PanelPairs& pairs,
                     uint64_t* words, size_t words_per_column,
                     uint64_t* scratch) {
  const size_t twos_at = panel.ones;
  const size_t fours_at = twos_at + 2 * panel.twos;
  PackPanelWith(panel, pairs, words, words_per_column, scratch,
                [&](const uint8_t* a, const uint8_t* b, uint64_t* row) {
                  PanelRowBitsScalar<uint8_t>(a, b, panel.ones, 0, row);
                  PanelRowBitsScalar<uint16_t>(a + twos_at, b + twos_at,
                                               panel.twos, panel.ones, row);
                  PanelRowBitsScalar<uint32_t>(a + fours_at, b + fours_at,
                                               panel.fours,
                                               panel.ones + panel.twos, row);
                },
                [](const uint8_t*, const uint8_t*, size_t, size_t,
                   uint64_t*) { return size_t{0}; });
}

/// One word per step; a 2 x 2 tile's four sums, its four column pointers
/// and the loop's index and bound fit the general-purpose registers.
struct GramStepScalar {
  using Vec = uint64_t;
  using Acc = uint64_t;
  static constexpr size_t kWords = 1;
  static constexpr size_t kRunWords = kGramWordsPerBlock;
  static Acc Zero() { return 0; }
  static Vec Load(const uint64_t* p) { return *p; }
  static Vec LoadTail(const uint64_t* p, size_t) { return *p; }
  static Acc AndPopAdd(Acc acc, Vec a, Vec b) {
    return acc + static_cast<uint64_t>(__builtin_popcountll(a & b));
  }
  template <size_t N>
  static void AddSums(const Acc (&acc)[N], uint64_t (&sums)[N]) {
    for (size_t t = 0; t < N; ++t) sums[t] += acc[t];
  }
};

void GramScalar(const uint64_t* words, size_t k, size_t words_per_column,
                uint64_t* counts, uint64_t* co_counts) {
  GramWith<GramStepScalar, 2, 2>(words, k, words_per_column, counts,
                                 co_counts);
}

SimdLevel DetectLevel() {
#if defined(__x86_64__) || defined(__i386__)
#if defined(FDX_HAVE_AVX512_BUILD)
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vpopcntdq")) {
    return SimdLevel::kAvx512;
  }
#endif
#if defined(FDX_HAVE_AVX2_BUILD)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
#endif
  return SimdLevel::kScalar;
}

SimdLevel ClampToDetected(SimdLevel level) {
  const int detected = static_cast<int>(DetectedSimdLevel());
  int want = static_cast<int>(level);
  if (want > detected) want = detected;
  if (want < 0) want = 0;
  // A machine may support AVX-512 without the binary having an AVX2
  // build; levels are ordered so clamping by integer value is safe only
  // when every level below the detected one is built. The dispatcher
  // falls back through SimdOpsForLevel when a table is missing.
  return static_cast<SimdLevel>(want);
}

std::atomic<int>& ActiveLevelSlot() {
  static std::atomic<int> slot{static_cast<int>(DetectedSimdLevel())};
  return slot;
}

}  // namespace

namespace simd_internal {

const SimdOps& ScalarOps() {
  static const SimdOps ops = [] {
    SimdOps table;
    table.level = SimdLevel::kScalar;
    table.gather_u8 = GatherCodesScalar<uint8_t>;
    table.gather_u16 = GatherCodesScalar<uint16_t>;
    table.gather_u32 = GatherCodesScalar<uint32_t>;
    table.pack_adjacent_equal = PackAdjacentEqualScalar;
    table.pack_panel = PackPanelScalar;
    table.gram = GramScalar;
    return table;
  }();
  return ops;
}

}  // namespace simd_internal

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kAvx512:
      return "avx512";
  }
  return "scalar";
}

SimdLevel DetectedSimdLevel() {
  static const SimdLevel level = DetectLevel();
  return level;
}

SimdLevel ActiveSimdLevel() {
  return static_cast<SimdLevel>(
      ActiveLevelSlot().load(std::memory_order_relaxed));
}

SimdLevel SetSimdLevel(SimdLevel level) {
  const SimdLevel clamped = ClampToDetected(level);
  ActiveLevelSlot().store(static_cast<int>(clamped),
                          std::memory_order_relaxed);
  return clamped;
}

const SimdOps& SimdOpsForLevel(SimdLevel level) {
  switch (ClampToDetected(level)) {
#if defined(FDX_HAVE_AVX512_BUILD)
    case SimdLevel::kAvx512:
      return simd_internal::Avx512Ops();
#endif
#if defined(FDX_HAVE_AVX2_BUILD)
    case SimdLevel::kAvx2:
      return simd_internal::Avx2Ops();
#endif
    default:
      return simd_internal::ScalarOps();
  }
}

const SimdOps& ActiveSimdOps() { return SimdOpsForLevel(ActiveSimdLevel()); }

}  // namespace fdx
