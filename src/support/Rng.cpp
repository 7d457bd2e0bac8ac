//===- support/Rng.cpp ----------------------------------------*- C++ -*-===//

#include "support/Rng.h"

#include "support/Error.h"

#include <cassert>
#include <cmath>
#include <numeric>

using namespace alic;

uint64_t alic::splitMix64(uint64_t &State) {
  State += 0x9e3779b97f4a7c15ull;
  uint64_t Z = State;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

uint64_t alic::hashCombine(std::initializer_list<uint64_t> Words) {
  uint64_t State = 0x243f6a8885a308d3ull; // pi digits; arbitrary non-zero.
  for (uint64_t W : Words) {
    State ^= W + 0x9e3779b97f4a7c15ull + (State << 6) + (State >> 2);
    (void)splitMix64(State);
    State = splitMix64(State);
  }
  return splitMix64(State);
}

static inline uint64_t rotl(uint64_t X, int K) {
  return (X << K) | (X >> (64 - K));
}

Rng::Rng(uint64_t Seed) {
  // SplitMix64 expansion avoids correlated lanes for small seeds.
  uint64_t S = Seed;
  for (uint64_t &Lane : State)
    Lane = splitMix64(S);
}

uint64_t Rng::next() {
  uint64_t Result = rotl(State[1] * 5, 7) * 9;
  uint64_t T = State[1] << 17;
  State[2] ^= State[0];
  State[3] ^= State[1];
  State[1] ^= State[2];
  State[0] ^= State[3];
  State[2] ^= T;
  State[3] = rotl(State[3], 45);
  return Result;
}

uint64_t Rng::nextBounded(uint64_t Bound) {
  assert(Bound != 0 && "nextBounded requires a nonzero bound");
  // Lemire's multiply-shift rejection method.
  uint64_t X = next();
  __uint128_t M = static_cast<__uint128_t>(X) * Bound;
  uint64_t Lo = static_cast<uint64_t>(M);
  if (Lo < Bound) {
    uint64_t Threshold = -Bound % Bound;
    while (Lo < Threshold) {
      X = next();
      M = static_cast<__uint128_t>(X) * Bound;
      Lo = static_cast<uint64_t>(M);
    }
  }
  return static_cast<uint64_t>(M >> 64);
}

double Rng::nextDouble() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::nextUniform(double Lo, double Hi) {
  assert(Lo <= Hi && "empty uniform range");
  return Lo + (Hi - Lo) * nextDouble();
}

double Rng::nextGaussian() {
  if (HasCachedGaussian) {
    HasCachedGaussian = false;
    return CachedGaussian;
  }
  // Box-Muller on two fresh uniforms; U1 is kept away from zero.
  double U1 = 0.0;
  do {
    U1 = nextDouble();
  } while (U1 <= 0x1.0p-60);
  double U2 = nextDouble();
  double R = std::sqrt(-2.0 * std::log(U1));
  double Theta = 2.0 * M_PI * U2;
  CachedGaussian = R * std::sin(Theta);
  HasCachedGaussian = true;
  return R * std::cos(Theta);
}

double Rng::nextExponential(double Mean) {
  assert(Mean > 0.0 && "exponential mean must be positive");
  double U = 0.0;
  do {
    U = nextDouble();
  } while (U <= 0.0);
  return -Mean * std::log(U);
}

bool Rng::nextBernoulli(double P) {
  if (P <= 0.0)
    return false;
  if (P >= 1.0)
    return true;
  return nextDouble() < P;
}

std::vector<size_t> Rng::sampleIndices(size_t N, size_t K) {
  if (K >= N) {
    std::vector<size_t> All(N);
    for (size_t I = 0; I != N; ++I)
      All[I] = I;
    shuffle(All);
    return All;
  }
  // Partial Fisher-Yates over the identity permutation: K swaps, then
  // the first K positions are the draw.
  std::vector<size_t> Result(N);
  std::iota(Result.begin(), Result.end(), size_t(0));
  for (size_t I = 0; I != K; ++I) {
    size_t J = I + static_cast<size_t>(nextBounded(N - I));
    std::swap(Result[I], Result[J]);
  }
  Result.resize(K);
  return Result;
}
