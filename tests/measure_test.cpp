//===- tests/measure_test.cpp - noise model and profiler ------*- C++ -*-===//

#include "measure/NoiseModel.h"
#include "measure/Profiler.h"
#include "spapt/Suite.h"
#include "stats/OnlineStats.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace alic;

namespace {

ParamSpace twoDimSpace() {
  std::vector<Param> Params;
  Params.push_back(Param::range("a", ParamKind::Unroll, 1, 30, 1, 0));
  Params.push_back(Param::range("b", ParamKind::Unroll, 1, 30, 1, 1));
  return ParamSpace(std::move(Params));
}

NoiseProfile testProfile() {
  NoiseProfile P;
  P.BaseRelSigma = 0.01;
  P.RegionAmplification = 20.0;
  P.RegionFraction = 0.2;
  P.BurstProbability = 0.0;
  P.FieldSeed = 12345;
  return P;
}

} // namespace

TEST(NoiseModelTest, FieldIsDeterministicAndBounded) {
  ParamSpace S = twoDimSpace();
  NoiseProfile P = testProfile();
  Rng R(1);
  for (int I = 0; I != 200; ++I) {
    Config C = S.sample(R);
    double F1 = noiseRegionField(P, S, C);
    double F2 = noiseRegionField(P, S, C);
    EXPECT_EQ(F1, F2);
    EXPECT_GE(F1, 0.0);
    EXPECT_LE(F1, 1.0);
  }
}

TEST(NoiseModelTest, FieldIsSmoothAcrossNeighbours) {
  ParamSpace S = twoDimSpace();
  NoiseProfile P = testProfile();
  // Adjacent ordinals move the field by much less than its full range.
  for (uint16_t A = 0; A + 1 < 30; ++A) {
    double F0 = noiseRegionField(P, S, {A, 7});
    double F1 = noiseRegionField(P, S, {uint16_t(A + 1), 7});
    EXPECT_LT(std::fabs(F1 - F0), 0.25);
  }
}

TEST(NoiseModelTest, SigmaBetweenBaseAndAmplified) {
  ParamSpace S = twoDimSpace();
  NoiseProfile P = testProfile();
  Rng R(2);
  bool SawQuiet = false, SawLoud = false;
  for (int I = 0; I != 500; ++I) {
    double Sigma = noiseSigmaRel(P, S, S.sample(R));
    EXPECT_GE(Sigma, P.BaseRelSigma - 1e-12);
    EXPECT_LE(Sigma, P.BaseRelSigma * P.RegionAmplification + 1e-12);
    if (Sigma < 1.5 * P.BaseRelSigma)
      SawQuiet = true;
    if (Sigma > 5.0 * P.BaseRelSigma)
      SawLoud = true;
  }
  EXPECT_TRUE(SawQuiet);
  EXPECT_TRUE(SawLoud);
}

TEST(NoiseModelTest, MeasurementsDeterministicPerIndex) {
  NoiseProfile P = testProfile();
  double A = drawMeasurement(P, 1.0, 0.02, 42, 0);
  double B = drawMeasurement(P, 1.0, 0.02, 42, 0);
  double C = drawMeasurement(P, 1.0, 0.02, 42, 1);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
}

TEST(NoiseModelTest, MeasurementMeanConverges) {
  NoiseProfile P = testProfile();
  OnlineStats S;
  for (uint64_t I = 0; I != 20000; ++I)
    S.add(drawMeasurement(P, 2.0, 0.05, 7, I));
  EXPECT_NEAR(S.mean(), 2.0, 0.01);
  EXPECT_NEAR(S.stddev(), 0.1, 0.01);
}

TEST(NoiseModelTest, BurstsCreateRightTail) {
  NoiseProfile P = testProfile();
  P.BurstProbability = 0.2;
  P.BurstMeanRel = 1.0;
  OnlineStats S;
  for (uint64_t I = 0; I != 20000; ++I)
    S.add(drawMeasurement(P, 1.0, 0.01, 9, I));
  EXPECT_GT(S.max(), 2.0);    // bursts visible
  EXPECT_GT(S.mean(), 1.1);   // positive bias from interference
}

TEST(NoiseModelTest, MeasurementsNeverBelowFloor) {
  NoiseProfile P = testProfile();
  for (uint64_t I = 0; I != 5000; ++I)
    EXPECT_GT(drawMeasurement(P, 1.0, 1.5, 3, I), 0.0);
}

//===----------------------------------------------------------------------===//
// Profiler
//===----------------------------------------------------------------------===//

TEST(ProfilerTest, ChargesCompileOncePerConfig) {
  auto B = createSpaptBenchmark("mvt");
  Profiler P(*B, 77);
  Config C = B->baselineConfig();
  P.measure(C, 5);
  EXPECT_EQ(P.ledger().Compilations, 1u);
  EXPECT_EQ(P.ledger().Runs, 5u);
  P.measureOnce(C);
  EXPECT_EQ(P.ledger().Compilations, 1u);
  EXPECT_EQ(P.ledger().Runs, 6u);
  EXPECT_EQ(P.observationCount(C), 6u);
}

TEST(ProfilerTest, LedgerAccumulatesRunTimes) {
  auto B = createSpaptBenchmark("mvt");
  Profiler P(*B, 77);
  Config C = B->baselineConfig();
  std::vector<double> Obs = P.measure(C, 10);
  double Sum = 0.0;
  for (double O : Obs)
    Sum += O;
  EXPECT_NEAR(P.ledger().RunSeconds, Sum, 1e-12);
  EXPECT_GT(P.ledger().CompileSeconds, 0.0);
}

TEST(ProfilerTest, GroundTruthDoesNotChargeLedger) {
  auto B = createSpaptBenchmark("mvt");
  Profiler P(*B, 77);
  Config C = B->baselineConfig();
  double Truth = P.groundTruthMean(C);
  EXPECT_GT(Truth, 0.0);
  EXPECT_EQ(P.ledger().Compilations, 0u);
  EXPECT_EQ(P.ledger().Runs, 0u);
}

TEST(ProfilerTest, ObservationsCenterOnGroundTruth) {
  auto B = createSpaptBenchmark("mvt");
  Profiler P(*B, 99);
  Config C = B->baselineConfig();
  double Truth = P.groundTruthMean(C);
  OnlineStats S;
  for (int I = 0; I != 2000; ++I)
    S.add(P.measureOnce(C));
  // Mean within a few percent (bursts add a small positive bias).
  EXPECT_NEAR(S.mean() / Truth, 1.0, 0.05);
}

TEST(ProfilerTest, DifferentSeedsGiveDifferentStreams) {
  auto B = createSpaptBenchmark("mvt");
  Profiler P1(*B, 1), P2(*B, 2);
  Config C = B->baselineConfig();
  EXPECT_NE(P1.measureOnce(C), P2.measureOnce(C));
}

TEST(ProfilerTest, SameSeedReplaysExactly) {
  auto B = createSpaptBenchmark("mvt");
  Profiler P1(*B, 5), P2(*B, 5);
  Config C = B->baselineConfig();
  for (int I = 0; I != 20; ++I)
    EXPECT_EQ(P1.measureOnce(C), P2.measureOnce(C));
}

TEST(ProfilerTest, PermutedMeasurementOrderYieldsIdenticalSamples) {
  // The counter-based noise-stream contract: observation k of a config is
  // a pure function of (StreamSeed, config key, k), so interleaving
  // measurements of other configs — in any order — can never change the
  // samples a config receives.  This is the prerequisite for sharding
  // measurement across workers.
  auto B = createSpaptBenchmark("mvt");
  Rng R(123);
  std::vector<Config> Configs;
  for (int I = 0; I != 6; ++I)
    Configs.push_back(B->space().sample(R));

  // Order 1: round-robin.  Order 2: config-major.  Order 3: reversed
  // round-robin.
  auto collect = [&](const std::vector<std::pair<int, int>> &Schedule) {
    Profiler P(*B, 31);
    std::vector<std::vector<double>> PerConfig(Configs.size());
    for (auto [ConfigIdx, Rep] : Schedule) {
      (void)Rep;
      PerConfig[size_t(ConfigIdx)].push_back(
          P.measureOnce(Configs[size_t(ConfigIdx)]));
    }
    return PerConfig;
  };

  std::vector<std::pair<int, int>> RoundRobin, ConfigMajor, Reversed;
  for (int Rep = 0; Rep != 5; ++Rep)
    for (int I = 0; I != 6; ++I)
      RoundRobin.push_back({I, Rep});
  for (int I = 0; I != 6; ++I)
    for (int Rep = 0; Rep != 5; ++Rep)
      ConfigMajor.push_back({I, Rep});
  Reversed.assign(RoundRobin.rbegin(), RoundRobin.rend());

  auto A = collect(RoundRobin);
  auto Bm = collect(ConfigMajor);
  auto Cm = collect(Reversed);
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I], Bm[I]) << "config " << I;
    EXPECT_EQ(A[I], Cm[I]) << "config " << I;
  }
}

TEST(ProfilerTest, MeasureBatchMatchesSequentialBitwise) {
  auto B = createSpaptBenchmark("mvt");
  Rng R(9);
  std::vector<Config> Batch;
  for (int I = 0; I != 12; ++I)
    Batch.push_back(B->space().sample(R));
  Batch.push_back(Batch.front()); // duplicate: gets the next sample index

  Profiler Sequential(*B, 17), Batched(*B, 17);
  std::vector<double> Want;
  for (const Config &C : Batch)
    Want.push_back(Sequential.measureOnce(C));

  EXPECT_EQ(Want, Batched.measureBatch(Batch));

  EXPECT_EQ(Sequential.ledger().Runs, Batched.ledger().Runs);
  EXPECT_EQ(Sequential.ledger().Compilations, Batched.ledger().Compilations);
  EXPECT_DOUBLE_EQ(Sequential.ledger().RunSeconds,
                   Batched.ledger().RunSeconds);
}

TEST(ProfilerTest, ObservationAtIsPureAndMatchesMeasureOnce) {
  auto B = createSpaptBenchmark("mvt");
  Profiler P(*B, 23), Probe(*B, 23);
  Config C = B->baselineConfig();
  // Peeking at future observations neither charges nor perturbs them.
  double Peek2 = Probe.observationAt(C, 2);
  EXPECT_EQ(Probe.ledger().Runs, 0u);
  std::vector<double> Obs = P.measure(C, 4);
  EXPECT_EQ(Obs[2], Peek2);
  EXPECT_EQ(Obs[1], Probe.observationAt(C, 1));
}

TEST(ProfilerTest, EvaluationPeeksDoNotSuppressCompileCharge) {
  // groundTruthMean/observationAt warm the per-config cache; a later real
  // measurement must still pay the one-time compile cost.
  auto B = createSpaptBenchmark("mvt");
  Profiler P(*B, 23);
  Config C = B->baselineConfig();
  P.groundTruthMean(C);
  P.observationAt(C, 0);
  EXPECT_EQ(P.ledger().Compilations, 0u);
  P.measureOnce(C);
  EXPECT_EQ(P.ledger().Compilations, 1u);
  EXPECT_GT(P.ledger().CompileSeconds, 0.0);
  P.measureOnce(C);
  EXPECT_EQ(P.ledger().Compilations, 1u); // still charged exactly once
}
