#ifndef FDX_TESTS_TRANSFORM_ORACLE_H_
#define FDX_TESTS_TRANSFORM_ORACLE_H_

// The materialized pair transform: Algorithm 2's (n_pairs x k) 0/1
// sample matrix of the FDX model variables as dense doubles. No engine
// builds it (the production paths stream moments off packed bits); tests
// unpack it to assert the transform's semantics cell by cell and to
// compare engines against Covariance over explicit samples.

#include "core/transform.h"
#include "linalg/matrix.h"

namespace fdx::oracle {

/// Exactly PairTransformPacked(table, options), unpacked row by row:
/// pass p's samples are rows [p * pairs_per_pass, (p+1) * pairs_per_pass).
Result<Matrix> PairTransform(const Table& table,
                             const TransformOptions& options = {});

}  // namespace fdx::oracle

#endif  // FDX_TESTS_TRANSFORM_ORACLE_H_
