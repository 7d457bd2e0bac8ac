//===- measure/NoiseModel.h - Measurement-noise synthesis -----*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthetic runtime-measurement noise, standing in for the paper's noisy
/// OS environment (see docs/ARCHITECTURE.md).  Three properties of the
/// paper's Table 2 and Section 2 drive the design:
///
///  1. noise magnitude differs wildly across benchmarks (correlation's
///     variance spans eight orders of magnitude; lu/mvt are nearly quiet);
///  2. noise is *regional* within a single space — "the variance is not
///     constant across all parts of the space ... some parts of the space
///     suffer from extreme noise";
///  3. occasional interference bursts (co-runners, Turbo Boost) produce
///     heavy right tails.
///
/// The region structure is a smooth, deterministic pseudo-random field
/// over configuration ordinals, so neighbouring configurations share
/// noise character — exactly the situation the paper's dynamic-tree
/// learner exploits when deciding which points deserve extra samples.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_MEASURE_NOISEMODEL_H
#define ALIC_MEASURE_NOISEMODEL_H

#include "support/Rng.h"
#include "tunable/ParamSpace.h"

namespace alic {

/// Per-benchmark noise parameters.
struct NoiseProfile {
  /// Relative (to the mean) standard deviation in quiet regions.
  double BaseRelSigma = 0.003;

  /// Multiplier applied to BaseRelSigma deep inside noisy regions.
  double RegionAmplification = 10.0;

  /// Approximate fraction of the space that is noisy.
  double RegionFraction = 0.15;

  /// Probability that one run is hit by an interference burst.
  double BurstProbability = 0.01;

  /// Mean burst magnitude, relative to the mean runtime (exponential).
  double BurstMeanRel = 0.05;

  /// Seed of the region field (derive per benchmark).
  uint64_t FieldSeed = 0;
};

/// Smooth field in [0, 1] over configuration space; deterministic in
/// (profile.FieldSeed, configuration).  Neighbouring configurations get
/// similar values.
double noiseRegionField(const NoiseProfile &Profile, const ParamSpace &Space,
                        const Config &C);

/// Relative standard deviation of measurements at \p C: the base sigma
/// smoothly amplified inside noisy regions.
double noiseSigmaRel(const NoiseProfile &Profile, const ParamSpace &Space,
                     const Config &C);

/// Draws one noisy measurement around \p MeanSeconds.  Deterministic in
/// (\p StreamSeed, \p SampleIndex): re-running an experiment reproduces
/// the same virtual measurements.
double drawMeasurement(const NoiseProfile &Profile, double MeanSeconds,
                       double SigmaRel, uint64_t StreamSeed,
                       uint64_t SampleIndex);

} // namespace alic

#endif // ALIC_MEASURE_NOISEMODEL_H
