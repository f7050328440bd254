#include "core/incremental.h"

#include "core/transform.h"
#include "util/fingerprint.h"

namespace fdx {

IncrementalFdx::IncrementalFdx(Schema schema, FdxOptions options)
    : schema_(std::move(schema)),
      options_(options),
      next_batch_seed_(options.transform.seed),
      ones_(schema_.size(), 0),
      co_counts_(schema_.size() * schema_.size(), 0) {}

Status IncrementalFdx::Append(const Table& batch) {
  FDX_ASSIGN_OR_RETURN(TransformCounts counts, TransformBatch(batch));
  Merge(counts, batch.num_rows());
  return Status::OK();
}

Result<TransformCounts> IncrementalFdx::TransformBatch(
    const Table& batch) const {
  if (batch.num_columns() != schema_.size()) {
    return Status::InvalidArgument("batch width does not match schema");
  }
  if (batch.num_rows() < 2) {
    return Status::InvalidArgument("batch needs at least two rows");
  }
  // Per-batch pair transform; distinct seeds decorrelate the shuffles
  // across batches. The time budget applies per batch — moments are
  // only merged after the transform succeeded in full, so a timed-out
  // append leaves the session consistent.
  const Deadline deadline(options_.time_budget_seconds);
  TransformOptions transform = options_.transform;
  transform.seed = next_batch_seed_;
  if (transform.threads == 0) transform.threads = options_.threads;
  if (transform.deadline == nullptr && options_.time_budget_seconds > 0.0) {
    transform.deadline = &deadline;
  }
  // The packed engine hands back the batch's integer moments directly:
  // no double sample matrix is ever materialized, and the merged counts
  // are identical to scanning one (the indicators are exact 0/1).
  return PairTransformCounts(batch, transform);
}

void IncrementalFdx::Merge(const TransformCounts& counts, size_t rows) {
  const size_t k = schema_.size();
  ++next_batch_seed_;
  for (size_t x = 0; x < k; ++x) ones_[x] += counts.counts[x];
  for (size_t c = 0; c < k * k; ++c) co_counts_[c] += counts.co_counts[c];
  total_samples_ += counts.num_samples;
  total_rows_ += rows;
  ++total_batches_;
}

Result<Matrix> IncrementalFdx::CurrentCovariance() const {
  const size_t k = schema_.size();
  if (total_samples_ == 0) {
    return Status::InvalidArgument("no batches appended yet");
  }
  const double inv_n = 1.0 / static_cast<double>(total_samples_);
  Matrix cov(k, k);
  for (size_t x = 0; x < k; ++x) {
    const double mean_x = static_cast<double>(ones_[x]) * inv_n;
    for (size_t y = x; y < k; ++y) {
      const double mean_y = static_cast<double>(ones_[y]) * inv_n;
      const double exy =
          static_cast<double>(co_counts_[x * k + y]) * inv_n;
      const double value = exy - mean_x * mean_y;
      cov(x, y) = value;
      cov(y, x) = value;
    }
  }
  return cov;
}

Result<FdxResult> IncrementalFdx::CurrentFds() const {
  // The accumulated moments are unchanged since the last solve, so its
  // result is still exact — answer from the memo without solving.
  if (memo_ != nullptr && memo_batches_ == total_batches_) {
    memo_hits_.fetch_add(1, std::memory_order_relaxed);
    return *memo_;
  }
  // One deadline spans the O(k^2) covariance assembly and the whole
  // structure-learning solve, so the budget semantics match the batch
  // Discover() path; the solve itself runs through the same recovery
  // ladder (ridge escalation -> sequential fallback -> quarantine).
  const Deadline deadline(options_.time_budget_seconds);
  FDX_ASSIGN_OR_RETURN(Matrix cov, CurrentCovariance());
  if (deadline.Expired()) {
    return Status::Timeout(
        "incremental fdx: time budget exhausted assembling covariance");
  }
  const size_t k = schema_.size();
  FdxOptions solve_options = options_;
  if (SeedsNextSolve()) {
    solve_options.glasso.warm_w = &warm_w_;
    solve_options.glasso.warm_theta = &warm_theta_;
  }
  FdxDiscoverer discoverer(solve_options);
  FDX_ASSIGN_OR_RETURN(FdxResult result,
                       discoverer.DiscoverFromCovariance(cov, &deadline));
  result.transform_samples = total_samples_;

  // Capture the solver state for the next call. Degraded runs (fallback
  // or quarantine) leave glasso_w empty and clear the warm state: never
  // seed the next solve from a solution the ladder had to salvage.
  if (solve_options.reuse_solver_state && result.glasso_w.rows() == k) {
    warm_w_ = result.glasso_w;
    warm_theta_ = result.theta;
    has_warm_ = true;
  } else {
    has_warm_ = false;
  }
  const bool warmed = result.diagnostics.solver_warm_start;
  if (!warmed) lineage_.clear();
  lineage_.push_back(total_batches_);
  solves_.fetch_add(1, std::memory_order_relaxed);
  if (warmed) warm_solves_.fetch_add(1, std::memory_order_relaxed);
  if (result.diagnostics.solver_newton_iterations > 0) {
    newton_solves_.fetch_add(1, std::memory_order_relaxed);
  }
  memo_ = std::make_unique<FdxResult>(result);
  memo_batches_ = total_batches_;
  return result;
}

bool IncrementalFdx::SeedsNextSolve() const {
  return options_.reuse_solver_state && has_warm_ &&
         warm_w_.rows() == schema_.size();
}

namespace {

std::string LineageKey(const std::vector<uint64_t>& lineage) {
  Fingerprint fp;
  fp.UpdateU64(static_cast<uint64_t>(lineage.size()));
  for (uint64_t entry : lineage) fp.UpdateU64(entry);
  return fp.Hex();
}

}  // namespace

std::string IncrementalFdx::SolveStateKey() const {
  return LineageKey(lineage_);
}

std::string IncrementalFdx::NextSolveStateKey() const {
  const bool memo_holds = memo_ != nullptr && memo_batches_ == total_batches_;
  if (memo_holds || SeedsNextSolve()) return SolveStateKey();
  // A cold solve is a function of the moments alone; it clears the
  // lineage and records the batch count it solved at.
  return LineageKey({static_cast<uint64_t>(total_batches_)});
}

}  // namespace fdx
