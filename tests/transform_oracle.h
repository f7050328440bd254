#ifndef FDX_TESTS_TRANSFORM_ORACLE_H_
#define FDX_TESTS_TRANSFORM_ORACLE_H_

// The materialized pair transform: Algorithm 2's (n_pairs x k) 0/1
// sample matrix of the FDX model variables as dense doubles, built the
// slow, obvious way. No engine builds it (the production paths stream
// moments off packed bits); tests use it to assert the transform's
// semantics cell by cell and to hold the packed kernels to it bitwise.

#include "core/transform.h"
#include "linalg/matrix.h"

namespace fdx::oracle {

/// The scalar reference of Algorithm 2: per attribute, std::stable_sort
/// of the shuffled rows by dictionary code, a vector of (row, row) pairs
/// (adjacent pairs plus the wrap pair, or the seeded reservoir's sorted
/// positions under `max_pairs_per_attribute`), and one code compare per
/// cell, where a null matches nothing. It consumes `options.seed` the way
/// every engine does: shuffle the row identity, then fork one seed per
/// attribute. Pass p's samples are rows [p * pairs_per_pass,
/// (p+1) * pairs_per_pass). Serial; `options.threads` is ignored.
Result<Matrix> PairTransform(const Table& table,
                             const TransformOptions& options = {});

/// Pass `attr` of PairTransform alone, over the table's encoding: its
/// rows [attr * pairs_per_pass, (attr+1) * pairs_per_pass), so a wide
/// table's passes need not all be held at once.
Result<Matrix> PairTransformPass(const EncodedTable& encoded,
                                 const TransformOptions& options,
                                 size_t attr);

}  // namespace fdx::oracle

#endif  // FDX_TESTS_TRANSFORM_ORACLE_H_
