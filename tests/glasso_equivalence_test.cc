// Equivalence, exactness, and robustness of the decomposed graphical
// lasso (screening + block solves + active-set inner lasso + warm
// starts) against the dense reference solver (tests/glasso_oracle.h).

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "glasso_oracle.h"
#include "linalg/glasso.h"
#include "linalg/stats.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace fdx {
namespace {

/// Tight tolerances: both solvers iterate to (numerically) the shared
/// fixed point, so path differences between the dense sweep and the
/// decomposed active-set sweep wash out below the comparison threshold.
GlassoOptions TightOptions() {
  GlassoOptions options;
  options.lambda = 0.08;
  options.max_iterations = 500;
  options.tolerance = 1e-9;
  options.lasso_max_iterations = 20000;
  options.lasso_tolerance = 1e-12;
  return options;
}

/// Random correlation matrix from a factor model: dense couplings, SPD
/// by construction.
Matrix RandomCorrelation(size_t k, uint64_t seed) {
  Rng rng(seed);
  const size_t n = 50 * k + 200;
  Matrix samples(n, k);
  Vector factor(n, 0.0);
  for (size_t i = 0; i < n; ++i) factor[i] = rng.NextGaussian();
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < k; ++j) {
      samples(i, j) = 0.6 * factor[i] + rng.NextGaussian();
    }
  }
  auto corr = Correlation(samples);
  EXPECT_TRUE(corr.ok());
  return *corr;
}

/// Block-diagonal correlation: within-block coupling rho, exact zeros
/// across blocks.
Matrix BlockCorrelation(size_t k, size_t block, double rho) {
  Matrix s(k, k);
  for (size_t i = 0; i < k; ++i) {
    s(i, i) = 1.0;
    for (size_t j = i + 1; j < k; ++j) {
      if (i / block == j / block) {
        s(i, j) = rho;
        s(j, i) = rho;
      }
    }
  }
  return s;
}

double MaxAbsDiff(const Matrix& a, const Matrix& b) {
  return a.Subtract(b).MaxAbs();
}

class GlassoEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override { DisarmFaults(); }
};

TEST_F(GlassoEquivalenceTest, MatchesReferenceOnRandomDenseProblems) {
  const GlassoOptions options = TightOptions();
  for (size_t k : {2u, 5u, 20u, 50u}) {
    const Matrix s = RandomCorrelation(k, 100 + k);
    auto fast = GraphicalLasso(s, options);
    auto reference = oracle::GraphicalLasso(s, options);
    ASSERT_TRUE(fast.ok()) << "k=" << k << ": " << fast.status().ToString();
    ASSERT_TRUE(reference.ok()) << "k=" << k;
    EXPECT_LE(MaxAbsDiff(fast->theta, reference->theta), 1e-8) << "k=" << k;
    EXPECT_LE(MaxAbsDiff(fast->w, reference->w), 1e-8) << "k=" << k;
  }
}

TEST_F(GlassoEquivalenceTest, MatchesReferenceOnSparseAndBlockProblems) {
  const GlassoOptions options = TightOptions();
  // Block-diagonal: screening decomposes; reference solves it dense.
  for (size_t k : {20u, 50u}) {
    const Matrix s = BlockCorrelation(k, 5, 0.5);
    auto fast = GraphicalLasso(s, options);
    auto reference = oracle::GraphicalLasso(s, options);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(fast->stats.components, k / 5);
    EXPECT_LE(MaxAbsDiff(fast->theta, reference->theta), 1e-8) << "k=" << k;
    EXPECT_LE(MaxAbsDiff(fast->w, reference->w), 1e-8) << "k=" << k;
  }
  // Sparse banded couplings: one connected component, so the fast path
  // exercises the swap-to-last block solver at full size.
  Matrix banded(20, 20);
  for (size_t i = 0; i < 20; ++i) {
    for (size_t j = 0; j < 20; ++j) {
      banded(i, j) = std::pow(0.5, std::fabs(static_cast<double>(i) -
                                             static_cast<double>(j)));
    }
  }
  auto fast = GraphicalLasso(banded, options);
  auto reference = oracle::GraphicalLasso(banded, options);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(fast->stats.components, 1u);
  EXPECT_LE(MaxAbsDiff(fast->theta, reference->theta), 1e-8);
}

TEST_F(GlassoEquivalenceTest, DisconnectedComponentsGetExactZeros) {
  // Components {0, 2}, {1}, {3, 4}: cross-component entries must be
  // *identically* zero (screening exactness), not merely small.
  Matrix s(5, 5);
  for (size_t i = 0; i < 5; ++i) s(i, i) = 1.0;
  s(0, 2) = s(2, 0) = 0.6;
  s(3, 4) = s(4, 3) = -0.5;
  const GlassoOptions options = TightOptions();
  auto fast = GraphicalLasso(s, options);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->stats.components, 3u);
  EXPECT_EQ(fast->stats.singletons, 1u);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t j = 0; j < 5; ++j) {
      const bool same_component = i == j || (i == 0 && j == 2) ||
                                  (i == 2 && j == 0) ||
                                  (i == 3 && j == 4) || (i == 4 && j == 3);
      if (!same_component) {
        EXPECT_EQ(fast->theta(i, j), 0.0) << i << "," << j;
        EXPECT_EQ(fast->w(i, j), 0.0) << i << "," << j;
      }
    }
  }
  // Singleton closure: w_jj = s_jj + lambda + ridge, theta_jj = 1/w_jj.
  const double w11 = 1.0 + options.lambda + options.diagonal_ridge;
  EXPECT_DOUBLE_EQ(fast->w(1, 1), w11);
  EXPECT_DOUBLE_EQ(fast->theta(1, 1), 1.0 / w11);
  // And the decomposed result still matches the dense reference.
  auto reference = oracle::GraphicalLasso(s, options);
  ASSERT_TRUE(reference.ok());
  EXPECT_LE(MaxAbsDiff(fast->theta, reference->theta), 1e-8);
}

TEST_F(GlassoEquivalenceTest, ScreeningFindsConnectedComponents) {
  // Chain 0-1-2 plus pair 3-4 plus singleton 5; edge strictly above
  // lambda only.
  Matrix s(6, 6);
  for (size_t i = 0; i < 6; ++i) s(i, i) = 1.0;
  s(0, 1) = s(1, 0) = 0.3;
  s(1, 2) = s(2, 1) = -0.3;
  s(3, 4) = s(4, 3) = 0.11;
  s(2, 5) = s(5, 2) = 0.1;  // exactly lambda: NOT an edge (strict >)
  auto components = GlassoScreenComponents(s, 0.1);
  ASSERT_EQ(components.size(), 3u);
  EXPECT_EQ(components[0], (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(components[1], (std::vector<size_t>{3, 4}));
  EXPECT_EQ(components[2], (std::vector<size_t>{5}));
  // All-independent: k singletons. Fully coupled: one component.
  EXPECT_EQ(GlassoScreenComponents(Matrix::Identity(4), 0.1).size(), 4u);
  Matrix dense(3, 3);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 3; ++j) dense(i, j) = i == j ? 1.0 : 0.5;
  }
  EXPECT_EQ(GlassoScreenComponents(dense, 0.1).size(), 1u);
}

TEST_F(GlassoEquivalenceTest, SolutionSatisfiesKktConditions) {
  // KKT of max log det T - tr(ST) - lambda ||T||_1 (off-diagonal
  // penalty, FHT diagonal convention W_jj = S_jj + lambda):
  //   theta_ij != 0  =>  w_ij = s_ij + lambda * sign(theta_ij)
  //   theta_ij == 0  =>  |w_ij - s_ij| <= lambda
  GlassoOptions options = TightOptions();
  options.diagonal_ridge = 0.0;
  const Matrix s = RandomCorrelation(20, 7);
  auto fast = GraphicalLasso(s, options);
  ASSERT_TRUE(fast.ok());
  const double lambda = options.lambda;
  for (size_t i = 0; i < 20; ++i) {
    EXPECT_NEAR(fast->w(i, i), s(i, i) + lambda, 1e-12);
    for (size_t j = 0; j < 20; ++j) {
      if (i == j) continue;
      const double grad = fast->w(i, j) - s(i, j);
      const double theta_ij = fast->theta(i, j);
      if (std::fabs(theta_ij) > 1e-7) {
        EXPECT_NEAR(grad, lambda * (theta_ij > 0 ? 1.0 : -1.0), 1e-6)
            << i << "," << j;
      } else {
        EXPECT_LE(std::fabs(grad), lambda + 1e-6) << i << "," << j;
      }
    }
  }
}

TEST_F(GlassoEquivalenceTest, DeterministicAcrossThreadCounts) {
  // Eight blocks solved in parallel: the assembled result must be
  // bit-identical no matter how many workers executed them.
  const Matrix s = BlockCorrelation(48, 6, 0.45);
  GlassoOptions options = TightOptions();
  options.threads = 1;
  auto reference_run = GraphicalLasso(s, options);
  ASSERT_TRUE(reference_run.ok());
  for (size_t threads : {2u, 8u}) {
    options.threads = threads;
    auto run = GraphicalLasso(s, options);
    ASSERT_TRUE(run.ok()) << "threads=" << threads;
    EXPECT_EQ(MaxAbsDiff(run->theta, reference_run->theta), 0.0)
        << "threads=" << threads;
    EXPECT_EQ(MaxAbsDiff(run->w, reference_run->w), 0.0)
        << "threads=" << threads;
    EXPECT_EQ(run->sweeps, reference_run->sweeps);
    EXPECT_EQ(run->stats.lasso_full_passes,
              reference_run->stats.lasso_full_passes);
    EXPECT_EQ(run->stats.lasso_active_passes,
              reference_run->stats.lasso_active_passes);
  }
}

TEST_F(GlassoEquivalenceTest, WarmStartConvergesToTheSameSolution) {
  const Matrix base = BlockCorrelation(30, 5, 0.4);
  const Matrix next = BlockCorrelation(30, 5, 0.42);
  const GlassoOptions options = TightOptions();
  auto seed = GraphicalLasso(base, options);
  ASSERT_TRUE(seed.ok());
  EXPECT_FALSE(seed->stats.warm_start_used);

  auto cold = GraphicalLasso(next, options);
  ASSERT_TRUE(cold.ok());
  GlassoOptions warm_options = options;
  warm_options.warm_w = &seed->w;
  warm_options.warm_theta = &seed->theta;
  auto warm = GraphicalLasso(next, warm_options);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->stats.warm_start_used);
  // Same fixed point, fewer (or equal) iterations to reach it.
  EXPECT_LE(MaxAbsDiff(warm->theta, cold->theta), 1e-8);
  EXPECT_LE(warm->stats.lasso_full_passes + warm->stats.lasso_active_passes,
            cold->stats.lasso_full_passes + cold->stats.lasso_active_passes);
}

TEST_F(GlassoEquivalenceTest, MismatchedWarmStartIsIgnored) {
  const Matrix s = BlockCorrelation(20, 5, 0.4);
  const GlassoOptions options = TightOptions();
  auto cold = GraphicalLasso(s, options);
  ASSERT_TRUE(cold.ok());
  Matrix wrong_size = Matrix::Identity(7);
  GlassoOptions warm_options = options;
  warm_options.warm_w = &wrong_size;
  warm_options.warm_theta = &wrong_size;
  auto run = GraphicalLasso(s, warm_options);
  ASSERT_TRUE(run.ok());
  EXPECT_FALSE(run->stats.warm_start_used);
  EXPECT_EQ(MaxAbsDiff(run->theta, cold->theta), 0.0);
}

TEST_F(GlassoEquivalenceTest, PreservesSymmetryAndSparsityContract) {
  const GlassoOptions options = TightOptions();
  const Matrix s = RandomCorrelation(24, 42);
  auto fast = GraphicalLasso(s, options);
  ASSERT_TRUE(fast.ok());
  EXPECT_TRUE(fast->theta.IsSymmetric(1e-12));
  // An averaged pair is zero only when both directions were zero, so a
  // zero in the symmetrized theta certifies the lasso zeroed the pair.
  for (size_t i = 0; i < 24; ++i) {
    for (size_t j = i + 1; j < 24; ++j) {
      EXPECT_EQ(fast->theta(i, j), fast->theta(j, i));
    }
  }
}

TEST_F(GlassoEquivalenceTest, ActiveSetStatsArePopulated) {
  const Matrix s = BlockCorrelation(40, 10, 0.4);
  auto run = GraphicalLasso(s, TightOptions());
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->stats.lasso_full_passes, 0u);
  EXPECT_GE(run->stats.ActiveHitRate(), 0.0);
  EXPECT_LE(run->stats.ActiveHitRate(), 1.0);
  EXPECT_EQ(run->stats.component_sizes, (std::vector<size_t>{10, 10, 10, 10}));
  EXPECT_GT(run->stats.sweeps, 0u);
}

TEST_F(GlassoEquivalenceTest, DeadlineExpiryPropagatesFromParallelBlocks) {
  const Matrix s = BlockCorrelation(60, 10, 0.45);
  const Deadline deadline(1e-9);
  // Make sure the budget is genuinely over before the solver polls it.
  while (!deadline.Expired()) {
    std::this_thread::sleep_for(std::chrono::microseconds(10));
  }
  for (size_t threads : {1u, 4u}) {
    GlassoOptions options = TightOptions();
    options.threads = threads;
    options.deadline = &deadline;
    auto run = GraphicalLasso(s, options);
    ASSERT_FALSE(run.ok()) << "threads=" << threads;
    EXPECT_EQ(run.status().code(), StatusCode::kTimeout);
  }
}

TEST_F(GlassoEquivalenceTest, SweepFaultPropagatesFromParallelBlocks) {
  const Matrix s = BlockCorrelation(60, 10, 0.45);
  for (size_t threads : {1u, 4u}) {
    ASSERT_TRUE(ArmFaults(std::string(kFaultGlassoSweep) + ":2+").ok());
    GlassoOptions options = TightOptions();
    options.threads = threads;
    auto run = GraphicalLasso(s, options);
    ASSERT_FALSE(run.ok()) << "threads=" << threads;
    EXPECT_EQ(run.status().code(), StatusCode::kNumericalError);
    EXPECT_NE(run.status().message().find("glasso.sweep"), std::string::npos);
    DisarmFaults();
  }
}

TEST_F(GlassoEquivalenceTest, LassoFaultPropagatesFromParallelBlocks) {
  const Matrix s = BlockCorrelation(60, 10, 0.45);
  for (size_t threads : {1u, 4u}) {
    ASSERT_TRUE(ArmFaults(kFaultLassoSolve).ok());
    GlassoOptions options = TightOptions();
    options.threads = threads;
    auto run = GraphicalLasso(s, options);
    ASSERT_FALSE(run.ok()) << "threads=" << threads;
    EXPECT_EQ(run.status().code(), StatusCode::kNumericalError);
    EXPECT_NE(run.status().message().find("lasso.solve"), std::string::npos);
    DisarmFaults();
  }
}

// --- QUIC-style Newton backend -------------------------------------

TEST_F(GlassoEquivalenceTest, NewtonMatchesReferenceOnDenseProblems) {
  GlassoOptions options = TightOptions();
  options.solver = GlassoSolver::kNewton;
  for (size_t k : {20u, 50u, 100u}) {
    const Matrix s = RandomCorrelation(k, 300 + k);
    auto newton = GraphicalLasso(s, options);
    // The reference stops on the *mean* absolute W change, which
    // dilutes with k^2; scale its tolerance down so the oracle itself
    // is within 1e-8 of the optimum at every size tested.
    GlassoOptions ref_options = TightOptions();
    ref_options.tolerance = 1e-9 * (400.0 / static_cast<double>(k * k));
    auto reference = oracle::GraphicalLasso(s, ref_options);
    ASSERT_TRUE(newton.ok())
        << "k=" << k << ": " << newton.status().ToString();
    ASSERT_TRUE(reference.ok()) << "k=" << k;
    EXPECT_STREQ(newton->stats.SolverBackend(), "newton") << "k=" << k;
    EXPECT_EQ(newton->stats.cd_blocks, 0u);
    EXPECT_GT(newton->stats.newton_iterations, 0u);
    EXPECT_LE(MaxAbsDiff(newton->theta, reference->theta), 1e-8)
        << "k=" << k;
    EXPECT_LE(MaxAbsDiff(newton->w, reference->w), 1e-8) << "k=" << k;
  }
}

TEST_F(GlassoEquivalenceTest, NewtonSolutionSatisfiesKktConditions) {
  // Same stationarity conditions as the CD solver (shared objective,
  // shared diagonal convention): this pins the Newton solution to the
  // optimum directly, not merely to another solver's output.
  GlassoOptions options = TightOptions();
  options.solver = GlassoSolver::kNewton;
  options.diagonal_ridge = 0.0;
  const Matrix s = RandomCorrelation(40, 9);
  auto run = GraphicalLasso(s, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const double lambda = options.lambda;
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_NEAR(run->w(i, i), s(i, i) + lambda, 1e-8);
    for (size_t j = 0; j < 40; ++j) {
      if (i == j) continue;
      const double grad = run->w(i, j) - s(i, j);
      const double theta_ij = run->theta(i, j);
      if (std::fabs(theta_ij) > 1e-7) {
        EXPECT_NEAR(grad, lambda * (theta_ij > 0 ? 1.0 : -1.0), 1e-6)
            << i << "," << j;
      } else {
        EXPECT_LE(std::fabs(grad), lambda + 1e-6) << i << "," << j;
      }
    }
  }
}

TEST_F(GlassoEquivalenceTest, NewtonDeterministicAcrossThreadCounts) {
  // Three forced-Newton blocks fan out across workers; the assembled
  // result must be bit-identical at any thread count.
  const Matrix s = BlockCorrelation(60, 20, 0.45);
  GlassoOptions options = TightOptions();
  options.solver = GlassoSolver::kNewton;
  options.threads = 1;
  auto reference_run = GraphicalLasso(s, options);
  ASSERT_TRUE(reference_run.ok()) << reference_run.status().ToString();
  EXPECT_EQ(reference_run->stats.newton_blocks, 3u);
  for (size_t threads : {2u, 8u}) {
    options.threads = threads;
    auto run = GraphicalLasso(s, options);
    ASSERT_TRUE(run.ok()) << "threads=" << threads;
    EXPECT_EQ(MaxAbsDiff(run->theta, reference_run->theta), 0.0)
        << "threads=" << threads;
    EXPECT_EQ(MaxAbsDiff(run->w, reference_run->w), 0.0)
        << "threads=" << threads;
    EXPECT_EQ(run->stats.newton_iterations,
              reference_run->stats.newton_iterations);
    EXPECT_EQ(run->stats.newton_path_stages,
              reference_run->stats.newton_path_stages);
  }
}

TEST_F(GlassoEquivalenceTest, NewtonWarmStartSkipsPathAndConverges) {
  const Matrix s = RandomCorrelation(40, 11);
  GlassoOptions options = TightOptions();
  options.solver = GlassoSolver::kNewton;
  auto cold = GraphicalLasso(s, options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_GT(cold->stats.newton_path_stages, 0u);

  // Seeding from the solved point skips continuation and re-converges
  // to the same fixed point in no more iterations than the cold solve.
  GlassoOptions warm_options = options;
  warm_options.warm_w = &cold->w;
  warm_options.warm_theta = &cold->theta;
  auto warm = GraphicalLasso(s, warm_options);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->stats.warm_start_used);
  EXPECT_EQ(warm->stats.newton_path_stages, 0u);
  EXPECT_LE(MaxAbsDiff(warm->theta, cold->theta), 1e-8);
  EXPECT_LE(warm->stats.newton_iterations, cold->stats.newton_iterations);

  // The path is an initial-point device only: disabling it changes the
  // route, not the destination.
  GlassoOptions no_path = options;
  no_path.lambda_path = false;
  auto direct = GraphicalLasso(s, no_path);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->stats.newton_path_stages, 0u);
  EXPECT_LE(MaxAbsDiff(direct->theta, cold->theta), 1e-8);
}

TEST_F(GlassoEquivalenceTest, AutoDispatchRoutesByComponentShape) {
  GlassoOptions options = TightOptions();  // solver defaults to kAuto
  // Small blocks (size 5 < newton_min_block): CD.
  auto small = GraphicalLasso(BlockCorrelation(20, 5, 0.4), options);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->stats.newton_blocks, 0u);
  EXPECT_STREQ(small->stats.SolverBackend(), "cd");
  // Banded screening graph (density < newton_dense_threshold): CD even
  // at size 40.
  Matrix banded(40, 40);
  for (size_t i = 0; i < 40; ++i) {
    for (size_t j = 0; j < 40; ++j) {
      banded(i, j) = std::pow(0.5, std::fabs(static_cast<double>(i) -
                                             static_cast<double>(j)));
    }
  }
  auto sparse = GraphicalLasso(banded, options);
  ASSERT_TRUE(sparse.ok());
  EXPECT_EQ(sparse->stats.newton_blocks, 0u);
  // One large dense component: Newton, and the same answer as forced CD.
  const Matrix dense = RandomCorrelation(40, 13);
  auto routed = GraphicalLasso(dense, options);
  ASSERT_TRUE(routed.ok());
  EXPECT_EQ(routed->stats.newton_blocks, 1u);
  EXPECT_STREQ(routed->stats.SolverBackend(), "newton");
  GlassoOptions cd_options = options;
  cd_options.solver = GlassoSolver::kCoordinateDescent;
  auto cd = GraphicalLasso(dense, cd_options);
  ASSERT_TRUE(cd.ok());
  EXPECT_EQ(cd->stats.newton_blocks, 0u);
  EXPECT_LE(MaxAbsDiff(routed->theta, cd->theta), 1e-8);
}

TEST_F(GlassoEquivalenceTest, NewtonSweepFaultPropagates) {
  GlassoOptions options = TightOptions();
  options.solver = GlassoSolver::kNewton;
  ASSERT_TRUE(ArmFaults(std::string(kFaultGlassoSweep) + ":1+").ok());
  auto run = GraphicalLasso(RandomCorrelation(20, 3), options);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kNumericalError);
  EXPECT_NE(run.status().message().find("glasso.sweep"), std::string::npos);
  DisarmFaults();
}

TEST_F(GlassoEquivalenceTest, SolverNameRoundTrip) {
  EXPECT_STREQ(GlassoSolverName(GlassoSolver::kAuto), "auto");
  EXPECT_STREQ(GlassoSolverName(GlassoSolver::kCoordinateDescent), "cd");
  EXPECT_STREQ(GlassoSolverName(GlassoSolver::kNewton), "newton");
  GlassoSolver solver = GlassoSolver::kAuto;
  EXPECT_TRUE(ParseGlassoSolver("newton", &solver));
  EXPECT_EQ(solver, GlassoSolver::kNewton);
  EXPECT_TRUE(ParseGlassoSolver("cd", &solver));
  EXPECT_EQ(solver, GlassoSolver::kCoordinateDescent);
  EXPECT_TRUE(ParseGlassoSolver("auto", &solver));
  EXPECT_EQ(solver, GlassoSolver::kAuto);
  EXPECT_FALSE(ParseGlassoSolver("quic", &solver));
}

TEST_F(GlassoEquivalenceTest, CallLevelFaultFiresOnAllSingletonInput) {
  // Screening leaves no block with a sweep loop; an armed glasso.sweep
  // fault must still fire (recovery tests depend on per-attempt
  // semantics regardless of input structure).
  ASSERT_TRUE(ArmFaults(kFaultGlassoSweep).ok());
  auto run = GraphicalLasso(Matrix::Identity(5), TightOptions());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kNumericalError);
  DisarmFaults();
}

}  // namespace
}  // namespace fdx
