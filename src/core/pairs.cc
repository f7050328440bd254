#include "core/pairs.h"

#include "util/reservoir.h"

namespace fdx {

void StableSortByCodes(CodeView codes, size_t cardinality,
                       const std::vector<uint32_t>& shuffled,
                       std::vector<uint32_t>* order,
                       std::vector<uint32_t>* buckets) {
  const size_t n = shuffled.size();
  order->resize(n);
  buckets->assign(cardinality + 2, 0);
  std::vector<uint32_t>& b = *buckets;
  DispatchCodeWidth(codes.width, [&](auto zero) {
    using T = decltype(zero);
    // Key = code + 1 in T's arithmetic, so the all-ones null code wraps
    // to bucket 0 and sorts first, exactly like the comparator
    // `codes[a] < codes[b]` on int32 codes with kNullCode = -1.
    const auto key = [&](uint32_t r) -> size_t {
      return static_cast<T>(LoadCode<T>(codes.data, r) + 1);
    };
    for (uint32_t r : shuffled) ++b[key(r) + 1];
    for (size_t i = 1; i < b.size(); ++i) b[i] += b[i - 1];
    // Placing elements in shuffle order keeps the shuffle as the tie
    // breaker inside equal keys (counting sort is stable).
    for (uint32_t r : shuffled) (*order)[b[key(r)]++] = r;
  });
}

void AttributePass::Reset(CodeView codes, size_t cardinality,
                          const std::vector<uint32_t>& shuffled,
                          size_t max_pairs, uint64_t attr_seed) {
  StableSortByCodes(codes, cardinality, shuffled, &order_, &buckets_);
  const size_t n = order_.size();
  sampled_ = max_pairs != 0 && max_pairs < n;
  num_pairs_ = n < 2 ? 0 : (sampled_ ? max_pairs : n);
  if (!sampled_) return;
  // Sampled variant: pick max_pairs distinct positions of the sorted
  // sequence (still adjacent pairs, so the distribution matches the
  // exact transform restricted to a subsample). A reservoir keeps the
  // selection O(max_pairs) in memory for out-of-core columns, and the
  // ascending emission order keeps the gathers sequential.
  ReservoirSampler sampler(max_pairs, attr_seed);
  sampler.AddRange(0, static_cast<uint32_t>(n));
  positions_ = sampler.Sorted();
}

}  // namespace fdx
