#ifndef FDX_CORE_TRANSFORM_KERNELS_H_
#define FDX_CORE_TRANSFORM_KERNELS_H_

#include <algorithm>
#include <cstdint>
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

/// Codes per gather-and-pack block: a multiple of 64, so every block
/// starts on a word of its column and all but a pass's last pack whole
/// words, and small enough that a block's gathered codes stay in L1/L2.
inline constexpr size_t kPackBlock = 4096;
static_assert(kPackBlock % 64 == 0, "pack blocks start on word boundaries");

/// Fixed buffer of the column pack: one block of gathered codes plus the
/// next block's first, for the pair that straddles them. One instance
/// per packing thread, reused across (column, pass) iterations; its size
/// does not grow with the table.
struct PackScratch {
  int32_t gathered[kPackBlock + 1];
};

/// Packs one pass's equality bits for the column with dictionary codes
/// `codes` into `words`, the column's ceil(num_pairs / 64) words, zeroed
/// (BitMatrix::Reset): the wave schedule's pack, which streams one column
/// at a time and never holds a row (the resident driver packs off a
/// CodePanel instead, see PackPanelPass). An exact pass walks the sorted
/// order a block at a time: it gathers the block's codes widened to
/// int32, and the runtime-dispatched pack_adjacent_equal writes the
/// block's whole words straight into the column; the block's leftover
/// bits and the wrap pair are OR'd in. A sampled pass reads its pair
/// positions directly and stays scalar: they are a sparse subset, not an
/// adjacent sweep. Both produce the exact integer bit stream, so the
/// output is bit-identical at every dispatch level and code width.
inline void PackColumnPass(CodeView codes, const AttributePass& pass,
                           uint64_t* words, PackScratch* scratch) {
  const std::vector<uint32_t>& order = pass.order();
  const size_t n = order.size();
  if (pass.sampled()) {
    const std::vector<uint32_t>& positions = pass.positions();
    DispatchCodeWidth(codes.width, [&](auto zero) {
      using T = decltype(zero);
      for (size_t p = 0; p < positions.size(); ++p) {
        const size_t s = positions[p];
        const uint64_t bit =
            EqualCodes(LoadCode<T>(codes.data, order[s]),
                       LoadCode<T>(codes.data, order[s + 1 == n ? 0 : s + 1]));
        words[p / 64] |= bit << (p % 64);
      }
    });
    return;
  }
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
    uint64_t* block = words + lo / 64;
    const size_t packed = ops.pack_adjacent_equal(g, len + 1, null_code, block);
    for (size_t j = packed; j < len; ++j) {
      block[j / 64] |= equal(g[j], g[j + 1]) << (j % 64);
    }
  }
  // The wrap pair (order[n-1], order[0]).
  int32_t ends[2];
  gather(codes.data, order.data() + n - 1, 1, &ends[0]);
  gather(codes.data, order.data(), 1, &ends[1]);
  words[(n - 1) / 64] |= equal(ends[0], ends[1]) << ((n - 1) % 64);
}

/// Packs one pass's equality bits for every column off `panel` (a
/// CodePanel's view) into `bits`, sized for the pass, through the
/// dispatched panel kernel: the resident driver's whole pack. `scratch`
/// holds PanelScratchWords(k) words. Bit-identical to k calls of
/// PackColumnPass at every dispatch level and code width.
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

/// k zeroed integer moments: k counts and the k x k co-occurrences.
inline TransformCounts ZeroCounts(size_t k) {
  TransformCounts zero;
  zero.counts.assign(k, 0);
  zero.co_counts.assign(k * k, 0);
  return zero;
}

/// Adds the integer moments `from` into `into` (same k): exact and
/// additive, so any merge order gives the same sums. The one moment sum
/// of the pass drivers' threads and of IncrementalFdx's batches.
inline void AddCounts(const TransformCounts& from, TransformCounts* into) {
  for (size_t c = 0; c < from.counts.size(); ++c) {
    into->counts[c] += from.counts[c];
  }
  for (size_t c = 0; c < from.co_counts.size(); ++c) {
    into->co_counts[c] += from.co_counts[c];
  }
  into->num_samples += from.num_samples;
}

/// A transform's passes before the finish: their integer moments, summed
/// (exact and additive, so merge order is free), plus — under the pooled
/// estimator — each pass's own covariance in its attribute's slot. Each
/// pass driver keeps one per thread and merges them at the end.
struct PassMoments {
  PassMoments(size_t k, bool pooled)
      : sums(ZeroCounts(k)),
        pass_cov(pooled ? k : 0),
        pass_(pooled ? ZeroCounts(k) : TransformCounts{}) {}

  /// Counts one finished pass of `num_pairs` pairs from its equality
  /// bits. Under the default estimator the Gram runs straight into the
  /// running sums; under the pooled one it first counts the pass alone,
  /// for the covariance filed in slot `attr`, then adds that into them.
  void AddPass(size_t attr, const BitMatrix& bits, size_t num_pairs) {
    if (pass_cov.empty()) {
      bits.AccumulateMoments(sums.counts.data(), sums.co_counts.data());
      sums.num_samples += num_pairs;
      return;
    }
    std::fill(pass_.counts.begin(), pass_.counts.end(), 0);
    std::fill(pass_.co_counts.begin(), pass_.co_counts.end(), 0);
    bits.AccumulateMoments(pass_.counts.data(), pass_.co_counts.data());
    pass_.num_samples = num_pairs;
    AddCounts(pass_, &sums);
    if (num_pairs > 0) {
      pass_cov[attr] = CovarianceFromCounts(pass_.counts, pass_.co_counts,
                                            pass_.counts.size(), num_pairs);
    }
  }

  /// Folds in the moments of a disjoint set of passes (one thread's).
  void Merge(PassMoments&& part) {
    AddCounts(part.sums, &sums);
    for (size_t attr = 0; attr < pass_cov.size(); ++attr) {
      if (!part.pass_cov[attr].empty()) {
        pass_cov[attr] = std::move(part.pass_cov[attr]);
      }
    }
  }

  TransformCounts sums;
  std::vector<Matrix> pass_cov;  ///< k slots when pooled, else empty

 private:
  TransformCounts pass_;  ///< one pooled pass's own moments, else empty
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

/// The one stop check of both pass drivers, run before every resident
/// pass and before every wave: Timeout once `options.deadline` has
/// expired, else Unavailable when `rss_limit_bytes` is nonzero and the
/// process's resident set exceeds it (the caller chose the ceiling; the
/// input does not fit under it). With `rss_limit_bytes` 0 it reads no
/// /proc file, so a driver may poll the deadline alone that way.
Status CheckPassLimits(const TransformOptions& options,
                       uint64_t rss_limit_bytes);

/// Bounds on the resident pass driver. `max_passes` caps the passes in
/// flight (each holds its sort order and bit matrix; 0 = one per
/// thread). `rss_limit_bytes` is the ceiling CheckPassLimits polls
/// before every pass (0 = none).
struct ResidentSchedule {
  size_t max_passes = 0;
  uint64_t rss_limit_bytes = 0;
};

/// The resident pass driver: every attribute pass of Algorithm 2 (sort,
/// pack, popcount) over a table held whole as one CodePanel, the passes
/// fanned out over `options.threads` with one pass of bits per thread
/// alive at a time. Each pass sorts a contiguous copy of its attribute's
/// codes (bounded by the panel's cardinality of that column), frees it,
/// and packs every column's bits off the panel's rows (PackPanelPass).
/// Keeps per-pass covariances when `pooled`. Runs CheckPassLimits
/// before every pass; the first stop a thread records is returned and
/// the remaining passes are skipped. Bit-identical at any thread count
/// and code width.
Result<PassMoments> AccumulateResidentPasses(
    const CodePanel& panel, const TransformStreams& streams,
    const TransformOptions& options, bool pooled,
    const ResidentSchedule& schedule = {});

}  // namespace fdx

#endif  // FDX_CORE_TRANSFORM_KERNELS_H_
