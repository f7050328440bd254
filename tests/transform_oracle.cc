#include "transform_oracle.h"

#include <algorithm>
#include <numeric>
#include <utility>
#include <vector>

#include "util/reservoir.h"
#include "util/rng.h"

namespace fdx::oracle {

namespace {

std::vector<std::pair<size_t, size_t>> RefPairsForAttribute(
    const EncodedTable& encoded, const std::vector<size_t>& shuffled,
    size_t attr, size_t max_pairs, uint64_t attr_seed) {
  std::vector<size_t> order = shuffled;
  const auto& codes = encoded.column_codes(attr);
  std::stable_sort(order.begin(), order.end(),
                   [&codes](size_t a, size_t b) { return codes[a] < codes[b]; });
  const size_t n = order.size();
  std::vector<std::pair<size_t, size_t>> pairs;
  if (max_pairs == 0 || max_pairs >= n) {
    pairs.reserve(n);
    for (size_t j = 0; j + 1 < n; ++j) pairs.emplace_back(order[j], order[j + 1]);
    pairs.emplace_back(order[n - 1], order[0]);
    return pairs;
  }
  // Sampled variant: max_pairs sorted positions drawn from a seeded
  // reservoir (Algorithm R), emitted ascending.
  pairs.reserve(max_pairs);
  ReservoirSampler sampler(max_pairs, attr_seed);
  sampler.AddRange(0, static_cast<uint32_t>(n));
  for (uint32_t j : sampler.Sorted()) {
    const size_t next = j + 1 == n ? 0 : j + 1;
    pairs.emplace_back(order[j], order[next]);
  }
  return pairs;
}

double RefEqualCodes(int32_t a, int32_t b) {
  return (a != EncodedTable::kNullCode && a == b) ? 1.0 : 0.0;
}

}  // namespace

Result<Matrix> PairTransformPass(const EncodedTable& encoded,
                                 const TransformOptions& options,
                                 size_t attr) {
  const size_t k = encoded.num_columns();
  const size_t n = encoded.num_rows();
  if (k == 0 || n < 2) {
    return Status::InvalidArgument(
        "pair transform needs >= 2 rows and >= 1 column");
  }
  Rng rng(options.seed);
  std::vector<size_t> shuffled(n);
  std::iota(shuffled.begin(), shuffled.end(), size_t{0});
  rng.Shuffle(&shuffled);
  std::vector<uint64_t> attr_seeds(k);
  for (uint64_t& seed : attr_seeds) seed = rng.engine()();

  const size_t max_pairs = options.max_pairs_per_attribute;
  const auto pairs = RefPairsForAttribute(encoded, shuffled, attr, max_pairs,
                                          attr_seeds[attr]);
  Matrix out(pairs.size(), k);
  size_t row = 0;
  for (const auto& [a, b] : pairs) {
    double* out_row = out.RowPtr(row++);
    for (size_t c = 0; c < k; ++c) {
      out_row[c] = RefEqualCodes(encoded.code(a, c), encoded.code(b, c));
    }
  }
  return out;
}

Result<Matrix> PairTransform(const Table& table,
                             const TransformOptions& options) {
  const size_t k = table.num_columns();
  const size_t n = table.num_rows();
  if (k == 0 || n < 2) {
    return Status::InvalidArgument(
        "pair transform needs >= 2 rows and >= 1 column");
  }
  const EncodedTable encoded = EncodedTable::Encode(table);
  const size_t max_pairs = options.max_pairs_per_attribute;
  const size_t per_attr = (max_pairs == 0 || max_pairs >= n) ? n : max_pairs;
  Matrix out(per_attr * k, k);
  for (size_t attr = 0; attr < k; ++attr) {
    FDX_ASSIGN_OR_RETURN(Matrix pass,
                         PairTransformPass(encoded, options, attr));
    for (size_t r = 0; r < per_attr; ++r) {
      std::copy(pass.RowPtr(r), pass.RowPtr(r) + k,
                out.RowPtr(attr * per_attr + r));
    }
  }
  return out;
}

}  // namespace fdx::oracle
