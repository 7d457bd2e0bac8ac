//===- tests/spapt_test.cpp - benchmark suite tests -----------*- C++ -*-===//

#include "spapt/Suite.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

using namespace alic;

TEST(SpaptSuiteTest, ElevenBenchmarksInTableOrder) {
  const auto &Names = spaptBenchmarkNames();
  ASSERT_EQ(Names.size(), 11u);
  EXPECT_EQ(Names.front(), "adi");
  EXPECT_EQ(Names.back(), "mvt");
}

TEST(SpaptSuiteTest, UnknownNameAborts) {
  EXPECT_DEATH((void)createSpaptBenchmark("nonesuch"), "unknown");
}

TEST(SpaptSuiteTest, CardinalitiesApproximateTable1) {
  // Paper Table 1 search-space sizes; ours must match to ~3 significant
  // figures (bench_paper_campaign's Table 1 prints the side-by-side).
  const std::map<std::string, double> Expected = {
      {"adi", 3.78e14},    {"atax", 2.57e12},       {"bicgkernel", 5.83e8},
      {"correlation", 3.78e14}, {"dgemv3", 1.33e27}, {"gemver", 1.14e16},
      {"hessian", 1.95e7}, {"jacobi", 1.95e7},      {"lu", 5.83e8},
      {"mm", 3.18e9},      {"mvt", 1.95e7}};
  for (const auto &[Name, Paper] : Expected) {
    auto B = createSpaptBenchmark(Name);
    double Ours = B->space().cardinality().toDouble();
    EXPECT_NEAR(Ours / Paper, 1.0, 0.03) << Name << ": ours=" << Ours;
  }
}

class SpaptBenchmarkTest : public testing::TestWithParam<std::string> {};

TEST_P(SpaptBenchmarkTest, BaselineConfigDecodesToAllOnes) {
  auto B = createSpaptBenchmark(GetParam());
  std::vector<int> Values = B->space().decode(B->baselineConfig());
  for (int V : Values)
    EXPECT_EQ(V, 1);
}

TEST_P(SpaptBenchmarkTest, RuntimesArePlausible) {
  auto B = createSpaptBenchmark(GetParam());
  Rng R(31);
  for (int I = 0; I != 30; ++I) {
    Config C = B->space().sample(R);
    double T = B->meanRuntimeSeconds(C);
    ASSERT_TRUE(std::isfinite(T));
    ASSERT_GT(T, 1e-3) << B->space().toString(C);
    ASSERT_LT(T, 100.0) << B->space().toString(C);
  }
}

TEST_P(SpaptBenchmarkTest, CompileTimesArePlausible) {
  auto B = createSpaptBenchmark(GetParam());
  Rng R(33);
  for (int I = 0; I != 20; ++I) {
    Config C = B->space().sample(R);
    double T = B->compileSeconds(C);
    ASSERT_GT(T, 0.01);
    ASSERT_LT(T, 300.0);
  }
}

TEST_P(SpaptBenchmarkTest, MeanRuntimeIsDeterministic) {
  auto B1 = createSpaptBenchmark(GetParam());
  auto B2 = createSpaptBenchmark(GetParam());
  Rng R(35);
  Config C = B1->space().sample(R);
  EXPECT_EQ(B1->meanRuntimeSeconds(C), B2->meanRuntimeSeconds(C));
}

TEST_P(SpaptBenchmarkTest, SurfaceHasSpread) {
  // A learnable problem needs configuration-dependent runtimes.
  auto B = createSpaptBenchmark(GetParam());
  Rng R(37);
  double Min = 1e300, Max = 0.0;
  for (int I = 0; I != 100; ++I) {
    double T = B->meanRuntimeSeconds(B->space().sample(R));
    Min = std::min(Min, T);
    Max = std::max(Max, T);
  }
  EXPECT_GT(Max / Min, 1.05) << "surface too flat";
}

TEST_P(SpaptBenchmarkTest, KernelVerifies) {
  auto B = createSpaptBenchmark(GetParam());
  B->kernel().verify();
  EXPECT_GT(B->kernel().countStmts(), 0u);
}

INSTANTIATE_TEST_SUITE_P(All, SpaptBenchmarkTest,
                         testing::ValuesIn(spaptBenchmarkNames()),
                         [](const auto &Info) { return Info.param; });

TEST(SpaptNoiseTest, CorrelationIsNoisiestQuietSuiteIsQuiet) {
  // Table 2 ordering: correlation's noise dwarfs lu/mm/mvt.
  auto Corr = createSpaptBenchmark("correlation");
  auto Lu = createSpaptBenchmark("lu");
  double CorrPeak = Corr->noise().BaseRelSigma *
                    Corr->noise().RegionAmplification;
  double LuPeak = Lu->noise().BaseRelSigma * Lu->noise().RegionAmplification;
  EXPECT_GT(CorrPeak, 10.0 * LuPeak);
}

TEST(SpaptNoiseTest, AdiHasBroadNoisyRegions) {
  auto Adi = createSpaptBenchmark("adi");
  auto Gemver = createSpaptBenchmark("gemver");
  EXPECT_GT(Adi->noise().RegionFraction, 2.0 * Gemver->noise().RegionFraction);
}
