//===- tests/exp_test.cpp - experiment-harness tests ----------*- C++ -*-===//

#include "exp/Dataset.h"
#include "exp/Runner.h"
#include "exp/Scale.h"
#include "spapt/Suite.h"
#include "support/Serialize.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

using namespace alic;

namespace {

ExperimentScale tinyScale() {
  ExperimentScale S = ExperimentScale::preset(ScaleKind::Smoke);
  S.NumConfigs = 300;
  S.MaxTrainingExamples = 30;
  S.CandidatesPerIteration = 20;
  S.ReferenceSetSize = 20;
  S.Particles = 50;
  S.Repetitions = 2;
  S.EvalEvery = 5;
  S.TestSubset = 60;
  return S;
}

} // namespace

TEST(ScaleTest, PresetsAreOrdered) {
  ExperimentScale Smoke = ExperimentScale::preset(ScaleKind::Smoke);
  ExperimentScale Bench = ExperimentScale::preset(ScaleKind::Bench);
  ExperimentScale Paper = ExperimentScale::preset(ScaleKind::Paper);
  EXPECT_LT(Smoke.NumConfigs, Bench.NumConfigs);
  EXPECT_LT(Bench.NumConfigs, Paper.NumConfigs);
  EXPECT_EQ(Paper.MaxTrainingExamples, 2500u);
  EXPECT_EQ(Paper.Particles, 5000u);
  EXPECT_EQ(Paper.Repetitions, 10u);
  EXPECT_EQ(Paper.CandidatesPerIteration, 500u);
}

TEST(DatasetTest, SplitSizesMatchFraction) {
  auto B = createSpaptBenchmark("mvt");
  Dataset D = buildDataset(*B, 400, 0.75, 5, 1);
  EXPECT_EQ(D.TrainPool.size(), 300u);
  EXPECT_EQ(D.TestConfigs.size(), 100u);
  EXPECT_EQ(D.TestFeatures.size(), 100u);
  EXPECT_EQ(D.TestMeans.size(), 100u);
}

TEST(DatasetTest, TestMeansArePositiveAndNearGroundTruth) {
  auto B = createSpaptBenchmark("mvt");
  Dataset D = buildDataset(*B, 200, 0.5, 35, 2);
  for (size_t I = 0; I != D.TestConfigs.size(); ++I) {
    double Truth = B->meanRuntimeSeconds(D.TestConfigs[I]);
    EXPECT_GT(D.TestMeans[I], 0.0);
    EXPECT_NEAR(D.TestMeans[I] / Truth, 1.0, 0.5);
  }
}

TEST(DatasetTest, DeterministicForEqualSeeds) {
  auto B = createSpaptBenchmark("mvt");
  Dataset D1 = buildDataset(*B, 100, 0.6, 5, 7);
  Dataset D2 = buildDataset(*B, 100, 0.6, 5, 7);
  EXPECT_EQ(D1.TestMeans, D2.TestMeans);
  EXPECT_EQ(D1.TrainPool.size(), D2.TrainPool.size());
}

TEST(DatasetTest, FeaturesAreNormalized) {
  auto B = createSpaptBenchmark("mvt");
  Dataset D = buildDataset(*B, 400, 0.75, 5, 3);
  // Most normalized features must be within a few standard deviations.
  for (const auto &Row : D.TestFeatures)
    for (double V : Row)
      EXPECT_LT(std::abs(V), 6.0);
}

TEST(DatasetTest, CorruptCachedOrdinalRebuilds) {
  // A cached blob whose first train-pool ordinal is out of range must be
  // rebuilt, never returned: features() would index past the parameter's
  // values.  The checksum catches the raw flip; the range check catches
  // the same flip in a blob resealed with a valid checksum.
  auto B = createSpaptBenchmark("atax");
  std::string CacheDir = ::testing::TempDir() + "alic_exp_dscorrupt";
  std::filesystem::remove_all(CacheDir);
  Dataset Fresh = buildDataset(*B, 200, 0.6, 5, 11);
  (void)loadOrBuildDataset(*B, 200, 0.6, 5, 11, CacheDir);
  std::string Path = std::filesystem::directory_iterator(CacheDir)->path();
  // Header (magic, version, key), the normalizer's two vectors, the
  // pool count and the first config's length prefix.
  size_t Dims = B->space().numParams();
  size_t FirstOrdinal = 16 + 2 * (8 + 8 * Dims) + 8 + 8;

  for (bool Reseal : {false, true}) {
    std::ifstream In(Path, std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    In.close();
    ASSERT_GT(Bytes.size(), FirstOrdinal + 2);
    Bytes[FirstOrdinal] = Bytes[FirstOrdinal + 1] = char(0xff); // 65535
    if (Reseal) {
      ByteWriter W;
      for (size_t I = 0; I + 8 < Bytes.size(); ++I)
        W.writeU8(uint8_t(Bytes[I]));
      W.writeChecksum();
      Bytes.assign(W.bytes().begin(), W.bytes().end());
    }
    std::ofstream(Path, std::ios::binary | std::ios::trunc) << Bytes;

    Dataset Got = loadOrBuildDataset(*B, 200, 0.6, 5, 11, CacheDir);
    EXPECT_EQ(Got.TrainPool, Fresh.TrainPool) << "reseal " << Reseal;
    EXPECT_EQ(Got.TestConfigs, Fresh.TestConfigs) << "reseal " << Reseal;
    EXPECT_EQ(Got.TestFeatures, Fresh.TestFeatures) << "reseal " << Reseal;
    EXPECT_EQ(Got.TestMeans, Fresh.TestMeans) << "reseal " << Reseal;
  }
  std::filesystem::remove_all(CacheDir);
}

TEST(RunnerTest, CurveCostsAreMonotone) {
  auto B = createSpaptBenchmark("mvt");
  ExperimentScale S = tinyScale();
  Dataset D = buildDataset(*B, S.NumConfigs, S.TrainFraction,
                           S.MeanObservations, 5);
  RunResult R = runLearning(*B, D, SamplingPlan::sequential(35), S, 9);
  ASSERT_GE(R.Curve.size(), 2u);
  for (size_t I = 1; I != R.Curve.size(); ++I)
    EXPECT_GE(R.Curve[I].CostSeconds, R.Curve[I - 1].CostSeconds);
  EXPECT_GT(R.FinalRmse, 0.0);
}

TEST(RunnerTest, FixedPlanCostsMoreThanSequential) {
  auto B = createSpaptBenchmark("mvt");
  ExperimentScale S = tinyScale();
  Dataset D = buildDataset(*B, S.NumConfigs, S.TrainFraction,
                           S.MeanObservations, 5);
  RunResult Fixed = runLearning(*B, D, SamplingPlan::fixed(35), S, 9);
  RunResult Seq = runLearning(*B, D, SamplingPlan::sequential(35), S, 9);
  EXPECT_GT(Fixed.TotalCostSeconds, 3.0 * Seq.TotalCostSeconds);
}

TEST(RunnerTest, AveragedCurveHasSameGrid) {
  auto B = createSpaptBenchmark("mvt");
  ExperimentScale S = tinyScale();
  Dataset D = buildDataset(*B, S.NumConfigs, S.TrainFraction,
                           S.MeanObservations, 5);
  RunResult Avg = runAveraged(*B, D, SamplingPlan::sequential(35), S, 21);
  RunResult One = runLearning(*B, D, SamplingPlan::sequential(35), S,
                              hashCombine({21ull, 0ull}));
  ASSERT_LE(Avg.Curve.size(), One.Curve.size());
  for (size_t I = 0; I != Avg.Curve.size(); ++I)
    EXPECT_EQ(Avg.Curve[I].Iteration, One.Curve[I].Iteration);
}

TEST(RunnerTest, NoiseScaleInflatesError) {
  auto B = createSpaptBenchmark("mvt");
  ExperimentScale S = tinyScale();
  Dataset D = buildDataset(*B, S.NumConfigs, S.TrainFraction,
                           S.MeanObservations, 5);
  RunOptions Loud;
  Loud.NoiseScale = 20.0;
  RunResult Quiet = runLearning(*B, D, SamplingPlan::fixed(1), S, 9);
  RunResult Noisy = runLearning(*B, D, SamplingPlan::fixed(1), S, 9, Loud);
  EXPECT_GT(Noisy.FinalRmse, Quiet.FinalRmse);
}

TEST(CompareCurvesTest, SpeedupMathOnSyntheticCurves) {
  RunResult Base, Ours;
  // Baseline: reaches 0.5 at t=100, 0.2 at t=1000.
  Base.Curve = {{0, 10.0, 1.0}, {1, 100.0, 0.5}, {2, 1000.0, 0.2}};
  // Ours: reaches 0.5 at t=20, bottoms out at 0.3 at t=50.
  Ours.Curve = {{0, 5.0, 1.0}, {1, 20.0, 0.5}, {2, 50.0, 0.3}};
  PlanComparison C = compareCurves(Base, Ours);
  // Common level = max(0.2, 0.3) = 0.3; base first reaches <= 0.3 at 1000,
  // ours at 50.
  EXPECT_DOUBLE_EQ(C.LowestCommonRmse, 0.3);
  EXPECT_DOUBLE_EQ(C.BaselineCostSeconds, 1000.0);
  EXPECT_DOUBLE_EQ(C.OursCostSeconds, 50.0);
  EXPECT_DOUBLE_EQ(C.Speedup, 20.0);
}

TEST(CompareCurvesTest, SlowerApproachYieldsSpeedupBelowOne) {
  RunResult Base, Ours;
  Base.Curve = {{0, 10.0, 1.0}, {1, 50.0, 0.2}};
  Ours.Curve = {{0, 10.0, 1.0}, {1, 400.0, 0.25}};
  PlanComparison C = compareCurves(Base, Ours);
  EXPECT_LT(C.Speedup, 1.0);
}

TEST(RunnerTest, GpModelOptionRuns) {
  auto B = createSpaptBenchmark("mvt");
  ExperimentScale S = tinyScale();
  S.MaxTrainingExamples = 12;
  Dataset D = buildDataset(*B, S.NumConfigs, S.TrainFraction,
                           S.MeanObservations, 5);
  RunOptions Opt;
  Opt.Model = ModelKind::Gp;
  RunResult R = runLearning(*B, D, SamplingPlan::fixed(1), S, 9, Opt);
  EXPECT_GT(R.FinalRmse, 0.0);
  EXPECT_EQ(R.Stats.Iterations, 12u);
}
