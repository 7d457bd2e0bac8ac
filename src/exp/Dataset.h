//===- exp/Dataset.h - Per-benchmark training/test datasets ---*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 4.5 of the paper: profile NumConfigs distinct random
/// configurations; each test configuration's label is its *observed* mean
/// over 35 executions (not the noise-free model mean — exactly as a real
/// harness would measure it); split into a training pool and a held-out
/// test set; z-score the features.
///
/// The training pool carries its normalized feature rows (a ConfigPool),
/// derived once per dataset — when it is built and when it is loaded
/// from the cache — and borrowed by every learner trained on it.  A
/// dataset must therefore outlive, and stay in place under, every
/// ActiveLearner and serve session built on it.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_EXP_DATASET_H
#define ALIC_EXP_DATASET_H

#include "spapt/Benchmark.h"
#include "support/FlatRows.h"
#include "tunable/ConfigPool.h"
#include "tunable/Normalizer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace alic {

/// One benchmark's sampled dataset.
struct Dataset {
  ConfigPool TrainPool;                        ///< configurations for AL
  std::vector<Config> TestConfigs;             ///< held-out configurations
  FlatRows TestFeatures;                       ///< normalized
  std::vector<double> TestMeans;               ///< observed mean runtimes
  Normalizer Norm;                             ///< fitted on all configs
};

/// Builds the dataset for \p B.
///
/// \param NumConfigs distinct configurations to profile.
/// \param TrainFraction fraction marked available for training.
/// \param MeanObservations executions averaged into each test label.
/// \param Seed controls sampling and the virtual measurement streams.
Dataset buildDataset(const SpaptBenchmark &B, size_t NumConfigs,
                     double TrainFraction, unsigned MeanObservations,
                     uint64_t Seed);

/// buildDataset memoized in a keyed on-disk cache.  The cache key covers
/// the benchmark name, every profiling parameter, the seed, and the blob
/// format version; a hit deserializes a dataset that is bit-identical to
/// a fresh buildDataset, a miss (or a stale/corrupt blob) rebuilds and
/// rewrites the entry atomically.  \p CacheDir is created on demand; an
/// empty \p CacheDir disables caching entirely.
Dataset loadOrBuildDataset(const SpaptBenchmark &B, size_t NumConfigs,
                           double TrainFraction, unsigned MeanObservations,
                           uint64_t Seed, const std::string &CacheDir);

} // namespace alic

#endif // ALIC_EXP_DATASET_H
