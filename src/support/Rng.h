//===- support/Rng.h - Deterministic random number generation -*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, fully deterministic random-number facility.  Every stochastic
/// component of the library (noise injection, candidate sampling, particle
/// resampling) draws from an explicitly seeded Rng so experiments replay
/// bit-identically across runs and platforms.  The generator is
/// xoshiro256**, seeded through SplitMix64 as its authors recommend.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SUPPORT_RNG_H
#define ALIC_SUPPORT_RNG_H

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

namespace alic {

/// SplitMix64 step; also useful as a cheap stateless hash of 64-bit keys.
uint64_t splitMix64(uint64_t &State);

/// Stateless mixing hash built on the SplitMix64 finalizer.  Combines an
/// arbitrary list of 64-bit words into one well-distributed word.  Used to
/// derive per-(benchmark, configuration, sample) noise streams.
uint64_t hashCombine(std::initializer_list<uint64_t> Words);

/// Deterministic pseudo-random generator (xoshiro256**).
class Rng {
public:
  /// Seeds the generator; equal seeds give equal streams.
  explicit Rng(uint64_t Seed = 0x9e3779b97f4a7c15ull);

  /// Returns the next raw 64-bit word.
  uint64_t next();

  /// Returns an unbiased uniform integer in [0, Bound) (Lemire's method).
  /// \p Bound must be nonzero.
  uint64_t nextBounded(uint64_t Bound);

  /// Returns a uniform double in [0, 1).
  double nextDouble();

  /// Returns a uniform double in [Lo, Hi).
  double nextUniform(double Lo, double Hi);

  /// Returns a standard normal deviate (Box-Muller, cached pair).
  double nextGaussian();

  /// Returns an Exponential deviate with the given \p Mean.
  double nextExponential(double Mean);

  /// Returns true with probability \p P (clamped to [0,1]).
  bool nextBernoulli(double P);

  /// Fisher-Yates shuffles \p Values in place.
  template <typename T> void shuffle(std::vector<T> &Values) {
    for (size_t I = Values.size(); I > 1; --I) {
      size_t J = static_cast<size_t>(nextBounded(I));
      std::swap(Values[I - 1], Values[J]);
    }
  }

  /// Draws \p K distinct indices from [0, N) in uniformly random order.
  /// If \p K >= N, returns a random permutation of all N indices.
  std::vector<size_t> sampleIndices(size_t N, size_t K);

private:
  uint64_t State[4];
  double CachedGaussian = 0.0;
  bool HasCachedGaussian = false;
};

} // namespace alic

#endif // ALIC_SUPPORT_RNG_H
