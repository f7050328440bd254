// Ablation of FDX's design choices (DESIGN.md):
//   1. pair transform vs raw-encoding structure learning (§4.3 claim);
//   2. covariance normalization on vs off;
//   3. zero-mean covariance vs empirical-mean covariance of the
//      transformed samples (the robust-statistics argument of §4.3).
// Each variant shares the identical glasso + U D U^T + generation tail.

#include <cstdio>

#include "bench_util.h"
#include "bn/networks.h"
#include "core/fdx.h"
#include "core/transform.h"
#include "eval/report.h"
#include "linalg/stats.h"
#include "synth/generator.h"

namespace {

using namespace fdx;

double ScoreVariant(const Table& noisy, const FdSet& truth,
                    const std::string& variant) {
  FdxOptions options;
  FdxDiscoverer discoverer(options);
  if (variant == "fdx") {
    auto result = discoverer.Discover(noisy);
    return result.ok() ? ScoreFdsUndirected(result->fds, truth).f1 : -1.0;
  }
  if (variant == "raw") {
    const EncodedTable encoded = EncodedTable::Encode(noisy);
    Matrix samples(encoded.num_rows(), encoded.num_columns());
    for (size_t c = 0; c < encoded.num_columns(); ++c) {
      for (size_t r = 0; r < encoded.num_rows(); ++r) {
        samples(r, c) = static_cast<double>(encoded.code(r, c));
      }
    }
    StandardizeColumns(&samples);
    auto cov = Covariance(samples);
    if (!cov.ok()) return -1.0;
    auto result = discoverer.DiscoverFromCovariance(*cov);
    return result.ok() ? ScoreFdsUndirected(result->fds, truth).f1 : -1.0;
  }
  if (variant == "no-normalize") {
    FdxOptions no_norm;
    no_norm.normalize_covariance = false;
    no_norm.lambda = 0.002;  // covariance-scale penalty (paper Table 8)
    FdxDiscoverer raw_scale(no_norm);
    auto result = raw_scale.Discover(noisy);
    return result.ok() ? ScoreFdsUndirected(result->fds, truth).f1 : -1.0;
  }
  if (variant == "pooled") {
    FdxOptions pooled;
    pooled.transform.pooled_covariance = true;
    FdxDiscoverer within_pass(pooled);
    auto result = within_pass.Discover(noisy);
    return result.ok() ? ScoreFdsUndirected(result->fds, truth).f1 : -1.0;
  }
  if (variant == "seq-lasso") {
    FdxOptions seq;
    seq.estimator = StructureEstimator::kSequentialLasso;
    FdxDiscoverer sequential(seq);
    auto result = sequential.Discover(noisy);
    return result.ok() ? ScoreFdsUndirected(result->fds, truth).f1 : -1.0;
  }
  if (variant == "zero-mean") {
    // The second moments about zero, E[Z_x Z_y] = co_count / N: the
    // transform's samples are 0/1, so this is the covariance of the
    // materialized sample matrix around a zero mean, to the bit.
    auto counts = PairTransformCounts(noisy, {});
    if (!counts.ok()) return -1.0;
    const size_t k = counts->counts.size();
    const double inv_n = 1.0 / static_cast<double>(counts->num_samples);
    Matrix cov(k, k);
    for (size_t x = 0; x < k; ++x) {
      for (size_t y = x; y < k; ++y) {
        cov(x, y) = static_cast<double>(counts->co_counts[x * k + y]) * inv_n;
        cov(y, x) = cov(x, y);
      }
    }
    auto result = discoverer.DiscoverFromCovariance(cov);
    return result.ok() ? ScoreFdsUndirected(result->fds, truth).f1 : -1.0;
  }
  return -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv);
  const size_t tuples = flags.GetSize("tuples", 2000);
  const std::vector<std::string> variants = {
      "fdx", "raw", "no-normalize", "zero-mean", "pooled", "seq-lasso"};
  std::vector<std::string> header = {"Workload"};
  for (const auto& v : variants) header.push_back(v);
  ReportTable table(header);

  // Synthetic workloads across noise levels.
  for (double noise : {0.01, 0.1, 0.3}) {
    std::vector<std::vector<double>> scores(variants.size());
    for (uint64_t seed : {51, 52, 53}) {
      SyntheticConfig config;
      config.num_tuples = tuples;
      config.num_attributes = 10;
      config.noise_rate = noise;
      config.seed = seed;
      auto ds = GenerateSynthetic(config);
      if (!ds.ok()) continue;
      for (size_t v = 0; v < variants.size(); ++v) {
        const double f1 = ScoreVariant(ds->noisy, ds->true_fds, variants[v]);
        if (f1 >= 0.0) scores[v].push_back(f1);
      }
    }
    std::vector<std::string> row = {"synthetic n=" + FormatDouble(noise, 2)};
    for (auto& s : scores) {
      row.push_back(s.empty() ? "-" : bench::Score3(Median(s)));
    }
    table.AddRow(row);
  }
  // Benchmark networks.
  for (auto& bn : MakeAllBenchmarkNetworks()) {
    Rng rng(99);
    auto sample = bn.net.Sample(5000, &rng);
    if (!sample.ok()) continue;
    std::vector<std::string> row = {bn.name};
    for (const auto& variant : variants) {
      const double f1 =
          ScoreVariant(*sample, bn.net.GroundTruthFds(), variant);
      row.push_back(f1 < 0.0 ? "-" : bench::Score3(f1));
    }
    table.AddRow(row);
  }
  std::printf(
      "Ablation: FDX vs raw-encoding structure learning vs\n"
      "unnormalized covariance vs zero-mean covariance (median F1)\n%s",
      table.ToString().c_str());
  return 0;
}
