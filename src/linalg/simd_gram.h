#ifndef FDX_LINALG_SIMD_GRAM_H_
#define FDX_LINALG_SIMD_GRAM_H_

// The part of every gram entry that does not depend on the ISA: the walk
// over blocks of kGramWordsPerBlock words, the TX x TY column tiles over the
// upper triangle (edge tiles included) and each tile's scatter into the
// caller's accumulators. Each kernel TU instantiates GramWith with its
// own vector step, compiled under that TU's flags. Everything here has
// internal linkage and instantiates no standard-library template, so the
// linker can never fold a vector-compiled copy into another TU's code.

#include <cstddef>
#include <cstdint>

#include "linalg/simd.h"

namespace fdx {
namespace {

/// One tile over words [0, len) of TX x-columns and TY y-columns:
/// sums[i * TY + j] = popcount(cx[i] AND cy[j]). Each loaded x vector
/// feeds TY AND+popcounts and each y vector TX; the TX * TY running sums
/// stay in registers through a run of at most Step::kRunWords words and
/// reduce together once per run. Kept out of line, so the walk's live
/// values do not crowd the tile's registers.
template <typename Step, size_t TX, size_t TY>
__attribute__((noinline)) void GramTile(const uint64_t* const (&cx)[TX],
                                        const uint64_t* const (&cy)[TY],
                                        size_t len,
                                        uint64_t (&sums)[TX * TY]) {
  for (size_t t = 0; t < TX * TY; ++t) sums[t] = 0;
  for (size_t run = 0; run < len; run += Step::kRunWords) {
    const size_t end =
        len - run < Step::kRunWords ? len : run + Step::kRunWords;
    typename Step::Acc acc[TX * TY];
#pragma GCC unroll 16
    for (size_t t = 0; t < TX * TY; ++t) acc[t] = Step::Zero();
    const auto step = [&](size_t w, auto load) {
      typename Step::Vec x[TX];
#pragma GCC unroll 16
      for (size_t i = 0; i < TX; ++i) x[i] = load(cx[i] + w);
#pragma GCC unroll 16
      for (size_t j = 0; j < TY; ++j) {
        const typename Step::Vec y = load(cy[j] + w);
#pragma GCC unroll 16
        for (size_t i = 0; i < TX; ++i) {
          acc[i * TY + j] = Step::AndPopAdd(acc[i * TY + j], x[i], y);
        }
      }
    };
    size_t w = run;
    for (; w + Step::kWords <= end; w += Step::kWords) {
      step(w, [](const uint64_t* p) { return Step::Load(p); });
    }
    if (w < end) {
      const size_t tail = end - w;
      step(w, [tail](const uint64_t* p) { return Step::LoadTail(p, tail); });
    }
    Step::AddSums(acc, sums);
  }
}

/// The gram contract (linalg/simd.h) around one vector step of the
/// kernel's ISA, a type with
///
///   kWords                words per vector
///   kRunWords             the most words (a multiple of kWords) one Acc
///                         may sum before Sum reads it
///   Vec, Acc              a vector of words, a vector of running sums
///   Zero()                an Acc of zeros
///   Load(p)               kWords words at p
///   LoadTail(p, n)        n < kWords words at p, the other lanes zero;
///                         reads nothing past p + n
///   AndPopAdd(acc, a, b)  acc plus the popcounts of a AND b
///   AddSums(acc, sums)    sums[t] += the total of acc[t]'s lanes, for
///                         arrays of TX * TY
///
/// Per block of at most kGramWordsPerBlock words of every column, tile rows
/// of TX columns walk tiles of TY columns from the one that reaches the
/// diagonal. An edge tile's columns past k read column k - 1 and its
/// sums are dropped; a tile across the diagonal keeps only y >= x.
template <typename Step, size_t TX, size_t TY>
void GramWith(const uint64_t* words, size_t k, size_t words_per_column,
              uint64_t* counts, uint64_t* co_counts) {
  const auto column = [&](size_t c, size_t w0) {
    return words + (c < k ? c : k - 1) * words_per_column + w0;
  };
  for (size_t w0 = 0; w0 < words_per_column; w0 += kGramWordsPerBlock) {
    const size_t rest = words_per_column - w0;
    const size_t len = rest < kGramWordsPerBlock ? rest : kGramWordsPerBlock;
    for (size_t x0 = 0; x0 < k; x0 += TX) {
      const uint64_t* cx[TX];
      for (size_t i = 0; i < TX; ++i) cx[i] = column(x0 + i, w0);
      for (size_t y0 = x0 / TY * TY; y0 < k; y0 += TY) {
        const uint64_t* cy[TY];
        for (size_t j = 0; j < TY; ++j) cy[j] = column(y0 + j, w0);
        uint64_t sums[TX * TY];
        GramTile<Step, TX, TY>(cx, cy, len, sums);
        if (y0 >= x0 + TX && y0 + TY <= k) {
          // Inside the matrix and right of the diagonal: keep all.
          for (size_t i = 0; i < TX; ++i) {
            for (size_t j = 0; j < TY; ++j) {
              co_counts[(x0 + i) * k + y0 + j] += sums[i * TY + j];
            }
          }
          continue;
        }
        for (size_t i = 0; i < TX && x0 + i < k; ++i) {
          const size_t x = x0 + i;
          for (size_t j = 0; j < TY && y0 + j < k; ++j) {
            const size_t y = y0 + j;
            if (y < x) continue;
            co_counts[x * k + y] += sums[i * TY + j];
            if (y == x) counts[x] += sums[i * TY + j];
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace fdx

#endif  // FDX_LINALG_SIMD_GRAM_H_
