#ifndef FDX_CORE_TRANSFORM_KERNELS_H_
#define FDX_CORE_TRANSFORM_KERNELS_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/code_panel.h"
#include "core/pairs.h"
#include "core/transform.h"
#include "data/code_column.h"
#include "linalg/bitmatrix.h"
#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "util/rng.h"
#include "util/status.h"

/// Shared internals of the pair-difference transform. Two engines
/// consume these: the in-memory PairTransform* entry points
/// (core/transform.cc) and the out-of-core streaming transform
/// (store/stream_transform.cc). Everything that determines the *result*
/// of a transform — randomness ordering, equality semantics, bit
/// layout, the integer→double moment expressions, and the resident pass
/// driver itself — lives here, so the two engines cannot drift apart:
/// bit-identical inputs produce bit-identical moments on either path.
namespace fdx {

/// Equality indicator with strict null semantics: a null matches nothing.
/// Codes are compared at their column's width, where the null code is
/// the all-ones value.
template <typename T>
inline uint64_t EqualCodes(T a, T b) {
  return (a != static_cast<T>(~T{0}) && a == b) ? 1 : 0;
}

/// Number of pairs one attribute pass emits for an n-row table.
inline size_t PairsPerAttribute(size_t n, size_t max_pairs) {
  return (max_pairs == 0 || max_pairs >= n) ? n : max_pairs;
}

/// Per-attribute RNG seeds, forked serially from the parent stream so the
/// sampled pair selection of one attribute never depends on how many
/// passes ran before it (or on which thread runs it).
inline std::vector<uint64_t> ForkAttributeSeeds(Rng* rng, size_t k) {
  std::vector<uint64_t> seeds(k);
  for (size_t attr = 0; attr < k; ++attr) seeds[attr] = rng->engine()();
  return seeds;
}

/// The random streams of one transform run: the shuffled row identity
/// permutation (the sort tie breaker) and the per-attribute seeds.
struct TransformStreams {
  std::vector<uint32_t> shuffled;
  std::vector<uint64_t> attr_seeds;
};

/// The canonical preamble of every transform: rejects shapes no pass can
/// run on, with the one set of messages every engine reports, then seeds
/// one Rng with `seed`, shuffles the row identity permutation, and forks
/// the k per-attribute seeds — in that exact order. Any engine that wants
/// to reproduce a transform must consume the stream this way.
Result<TransformStreams> PrepareTransformStreams(size_t n, size_t k,
                                                 uint64_t seed);

/// Sequential bit appender over a column's word array. Bits arrive in
/// index order; whole words are stored once, the trailing partial word
/// on Flush. The destination words must start zeroed (BitMatrix::Reset)
/// or be fully overwritten (the writer covers every word it touches).
class ColumnBitWriter {
 public:
  explicit ColumnBitWriter(uint64_t* words) : words_(words) {}

  inline void Append(uint64_t bit) {
    word_ |= bit << shift_;
    if (++shift_ == 64) {
      *words_++ = word_;
      word_ = 0;
      shift_ = 0;
    }
  }

  /// Appends the low `nbits` bits of `bits` (1..64, LSB first) in one
  /// shot — the bulk entry used by the SIMD pack path, equivalent to
  /// nbits Append calls. Bits above `nbits` must be zero.
  inline void AppendWord(uint64_t bits, unsigned nbits) {
    word_ |= bits << shift_;
    const unsigned avail = 64 - shift_;
    if (nbits >= avail) {
      *words_++ = word_;
      // avail == 64 implies shift_ == 0 and the whole input was stored
      // above; the shift below would be UB, so special-case it.
      word_ = avail == 64 ? 0 : bits >> avail;
      shift_ = nbits - avail;
    } else {
      shift_ += nbits;
    }
  }

  void Flush() {
    if (shift_ != 0) *words_ = word_;
  }

 private:
  uint64_t* words_;
  uint64_t word_ = 0;
  unsigned shift_ = 0;
};

/// Codes per gather-and-pack block: a multiple of 64, so every block
/// but a pass's last packs whole words, and small enough that a block's
/// gathered codes and words stay in L1/L2.
inline constexpr size_t kPackBlock = 4096;

/// Fixed buffers of the pack path: one block of gathered codes (plus the
/// next block's first, for the pair that straddles them) and the words
/// the SIMD compare fills before the writer splices them in at the
/// current bit offset. One instance per packing thread, reused across
/// (column, pass) iterations; its size does not grow with the table.
struct PackScratch {
  int32_t gathered[kPackBlock + 1];
  uint64_t words[kPackBlock / 64];
};

/// Appends one pass's equality bits for the column with dictionary codes
/// `codes` to `writer`: the wave schedule's pack, which streams one
/// column at a time and never holds a row (the resident driver packs
/// off a CodePanel instead, see PackPanelPass). The full (uncapped)
/// variant walks the sorted order a block at a time: it gathers the
/// block's codes widened to int32 and packs their adjacent-equality bits
/// through the runtime-dispatched SIMD kernels (scalar fallback
/// included). Both produce the exact integer bit stream, so the output
/// is bit-identical at every dispatch level and code width. The sampled
/// variant stays scalar: its pair positions are a sparse subset, not an
/// adjacent sweep.
inline void AppendPassColumnBits(CodeView codes, const AttributePass& pass,
                                 ColumnBitWriter* writer,
                                 PackScratch* scratch) {
  if (pass.sampled()) {
    DispatchCodeWidth(codes.width, [&](auto zero) {
      using T = decltype(zero);
      pass.ForEachPair([&](size_t, size_t a, size_t b) {
        writer->Append(EqualCodes(LoadCode<T>(codes.data, a),
                                  LoadCode<T>(codes.data, b)));
      });
    });
    return;
  }
  const std::vector<uint32_t>& order = pass.order();
  const size_t n = order.size();
  if (n < 2) return;
  const SimdOps& ops = ActiveSimdOps();
  const SimdOps::GatherFn gather = ops.gather(codes.width);
  const int32_t null_code = NullCodeAt(codes.width);
  const auto equal = [null_code](int32_t a, int32_t b) -> uint64_t {
    return (a != null_code && a == b) ? 1 : 0;
  };
  int32_t* g = scratch->gathered;
  // Pairs (j, j + 1) for j in [lo, lo + len): the block gathers len + 1
  // codes, the last of which starts the next block.
  for (size_t lo = 0; lo + 1 < n; lo += kPackBlock) {
    const size_t len = std::min(kPackBlock, n - 1 - lo);
    gather(codes.data, order.data() + lo, len + 1, g);
    const size_t packed =
        ops.pack_adjacent_equal(g, len + 1, null_code, scratch->words);
    for (size_t w = 0; w < packed / 64; ++w) {
      writer->AppendWord(scratch->words[w], 64);
    }
    for (size_t j = packed; j < len; ++j) {
      writer->Append(equal(g[j], g[j + 1]));
    }
  }
  // The wrap pair (order[n-1], order[0]).
  int32_t ends[2];
  gather(codes.data, order.data() + n - 1, 1, &ends[0]);
  gather(codes.data, order.data(), 1, &ends[1]);
  writer->Append(equal(ends[0], ends[1]));
}

/// Packs one pass's equality bits for every column off `panel` (a
/// CodePanel's view) into `bits`, sized for the pass, through the
/// dispatched panel kernel: the resident driver's whole pack. `scratch`
/// holds PanelScratchWords(k) words. Bit-identical to k calls of
/// AppendPassColumnBits at every dispatch level and code width.
inline void PackPanelPass(const PanelView& panel, const AttributePass& pass,
                          BitMatrix* bits, uint64_t* scratch) {
  PanelPairs pairs;
  pairs.order = pass.order().data();
  pairs.n = pass.order().size();
  pairs.positions = pass.sampled() ? pass.positions().data() : nullptr;
  pairs.num_pairs = pass.num_pairs();
  ActiveSimdOps().pack_panel(panel, pairs, bits->column_words(0),
                             bits->words_per_column(), scratch);
}

/// The one finish of the integer moments: the covariance E[xy] - E[x]E[y]
/// of `n` samples over k columns, from per-column ones `counts` and
/// upper-triangular co-occurrences `co_counts` (y >= x at [x * k + y]).
/// The whole transform (concatenated or per pass, under the pooled
/// estimator) and IncrementalFdx's merged batches all finish here, so
/// equal counts give equal doubles on every path.
inline Matrix CovarianceFromCounts(const std::vector<uint64_t>& counts,
                                   const std::vector<uint64_t>& co_counts,
                                   size_t k, size_t n) {
  Matrix cov(k, k);
  const double inv_n = 1.0 / static_cast<double>(n);
  for (size_t x = 0; x < k; ++x) {
    const double mean_x = static_cast<double>(counts[x]) * inv_n;
    for (size_t y = x; y < k; ++y) {
      const double mean_y = static_cast<double>(counts[y]) * inv_n;
      const double exy = static_cast<double>(co_counts[x * k + y]) * inv_n;
      const double value = exy - mean_x * mean_y;
      cov(x, y) = value;
      cov(y, x) = value;
    }
  }
  return cov;
}

/// Reduces the per-pass pooled covariances in attribute order (the order
/// is part of the determinism contract: floating-point addition is not
/// associative).
inline Matrix ReducePooledCovariance(const std::vector<Matrix>& pass_cov) {
  Matrix pooled;
  size_t pooled_passes = 0;
  for (const Matrix& cov : pass_cov) {
    if (cov.empty()) continue;
    if (pooled.empty()) {
      pooled = Matrix(cov.rows(), cov.cols());
    }
    pooled = pooled.Add(cov);
    ++pooled_passes;
  }
  if (pooled_passes == 0) return pooled;
  return pooled.Scale(1.0 / static_cast<double>(pooled_passes));
}

/// A transform's passes before the finish: their integer moments, summed
/// (exact and additive, so merge order is free), plus — under the pooled
/// estimator — each pass's own covariance in its attribute's slot.
struct PassMoments {
  PassMoments(size_t k, bool pooled) : pass_cov(pooled ? k : 0) {
    sums.counts.assign(k, 0);
    sums.co_counts.assign(k * k, 0);
  }

  /// Adds integer moments: one pass's, or a partial over several.
  void AddCounts(const std::vector<uint64_t>& counts,
                 const std::vector<uint64_t>& co_counts,
                 size_t num_samples) {
    for (size_t c = 0; c < counts.size(); ++c) sums.counts[c] += counts[c];
    for (size_t c = 0; c < co_counts.size(); ++c) {
      sums.co_counts[c] += co_counts[c];
    }
    sums.num_samples += num_samples;
  }

  /// Adds one finished pass's moments.
  void AddPass(size_t attr, const std::vector<uint64_t>& pass_counts,
               const std::vector<uint64_t>& pass_co_counts,
               size_t num_pairs) {
    AddCounts(pass_counts, pass_co_counts, num_pairs);
    if (!pass_cov.empty() && num_pairs > 0) {
      pass_cov[attr] = CovarianceFromCounts(pass_counts, pass_co_counts,
                                            pass_counts.size(), num_pairs);
    }
  }

  /// Folds in the moments of a disjoint set of passes (one thread's).
  void Merge(PassMoments&& part) {
    AddCounts(part.sums.counts, part.sums.co_counts, part.sums.num_samples);
    for (size_t attr = 0; attr < pass_cov.size(); ++attr) {
      if (!part.pass_cov[attr].empty()) {
        pass_cov[attr] = std::move(part.pass_cov[attr]);
      }
    }
  }

  TransformCounts sums;
  std::vector<Matrix> pass_cov;  ///< k slots when pooled, else empty
};

/// The finish every engine shares: mean and covariance from the integer
/// moments, the covariance replaced by the attribute-order pooled
/// reduction when pass covariances were kept.
inline Result<TransformedMoments> FinishMoments(const PassMoments& moments) {
  const TransformCounts& sums = moments.sums;
  if (sums.num_samples == 0) {
    return Status::InvalidArgument("pair transform produced no samples");
  }
  const size_t k = sums.counts.size();
  TransformedMoments out;
  out.num_samples = sums.num_samples;
  out.mean.assign(k, 0.0);
  const double inv_n = 1.0 / static_cast<double>(sums.num_samples);
  for (size_t c = 0; c < k; ++c) {
    out.mean[c] = static_cast<double>(sums.counts[c]) * inv_n;
  }
  out.cov = moments.pass_cov.empty()
                ? CovarianceFromCounts(sums.counts, sums.co_counts, k,
                                       sums.num_samples)
                : ReducePooledCovariance(moments.pass_cov);
  return out;
}

/// Bounds on the resident pass driver. `max_passes` caps the passes in
/// flight (each holds its sort order and bit matrix; 0 = one per
/// thread). `between_passes`, when set, runs before every pass; an error
/// stops the remaining passes and is returned (the streaming transform
/// polls its memory ceiling here).
struct ResidentSchedule {
  size_t max_passes = 0;
  std::function<Status()> between_passes;
};

/// The resident pass driver: every attribute pass of Algorithm 2 (sort,
/// pack, popcount) over a table held whole as one CodePanel, the passes
/// fanned out over `options.threads` with one pass of bits per thread
/// alive at a time. Each pass sorts a contiguous copy of its attribute's
/// codes (bounded by the panel's cardinality of that column), frees it,
/// and packs every column's bits off the panel's rows (PackPanelPass).
/// Keeps per-pass covariances when `pooled`. Polls `options.deadline`
/// between passes and returns Timeout on expiry. Bit-identical at any
/// thread count and code width.
Result<PassMoments> AccumulateResidentPasses(
    const CodePanel& panel, const TransformStreams& streams,
    const TransformOptions& options, bool pooled,
    const ResidentSchedule& schedule = {});

}  // namespace fdx

#endif  // FDX_CORE_TRANSFORM_KERNELS_H_
