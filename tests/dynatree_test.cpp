//===- tests/dynatree_test.cpp - dynamic-tree model tests -----*- C++ -*-===//

#include "dynatree/DynaTree.h"
#include "support/Rng.h"
#include "support/Scheduler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

using namespace alic;

namespace alic {

/// The per-particle scoring walk that unique-run deduplication replaces:
/// every particle walks every probe itself.  DynaTree's predict, ALM and
/// ALC must match it bit-for-bit on any ensemble state.
class DynaTreeNaiveReference {
public:
  explicit DynaTreeNaiveReference(const DynaTree &M) : M(M) {}

  Prediction predict(RowRef X) const {
    double MeanSum = 0.0, VarSum = 0.0, Mean2Sum = 0.0;
    for (const DynaTree::Particle &P : M.Particles) {
      int32_t Leaf = M.findLeaf(*P.T, X.data());
      Prediction LeafP = M.leafPredictive(M.leafStats(P, Leaf));
      MeanSum += LeafP.Mean;
      VarSum += LeafP.Variance;
      Mean2Sum += LeafP.Mean * LeafP.Mean;
    }
    double Np = double(M.Particles.size());
    Prediction Out;
    Out.Mean = MeanSum / Np;
    Out.Variance = VarSum / Np + Mean2Sum / Np - Out.Mean * Out.Mean;
    if (Out.Variance < 0.0)
      Out.Variance = 0.0;
    return Out;
  }

  std::vector<double> almScores(const FlatRows &Candidates) const {
    std::vector<double> Scores(Candidates.size());
    for (size_t C = 0; C != Candidates.size(); ++C)
      Scores[C] = predict(Candidates[C]).Variance;
    return Scores;
  }

  std::vector<double> alcScores(const FlatRows &Candidates,
                                const FlatRows &Reference) const {
    const auto &Particles = M.Particles;
    std::vector<std::vector<uint32_t>> RefCounts(Particles.size());
    for (size_t P = 0; P != Particles.size(); ++P) {
      RefCounts[P].assign(Particles[P].T->Nodes.size(), 0);
      for (size_t R = 0; R != Reference.size(); ++R)
        ++RefCounts[P][size_t(M.findLeaf(*Particles[P].T, Reference.row(R)))];
    }
    std::vector<double> Scores(Candidates.size());
    for (size_t C = 0; C != Candidates.size(); ++C) {
      double Total = 0.0;
      for (size_t P = 0; P != Particles.size(); ++P) {
        int32_t Leaf = M.findLeaf(*Particles[P].T, Candidates.row(C));
        uint32_t Count = RefCounts[P][size_t(Leaf)];
        if (Count != 0)
          Total += double(Count) *
                   M.leafVarianceDrop(M.leafStats(Particles[P], Leaf));
      }
      Scores[C] = Total / double(Particles.size());
    }
    return Scores;
  }

private:
  const DynaTree &M;
};

} // namespace alic

namespace {

DynaTreeConfig smallConfig(unsigned Particles = 120, uint64_t Seed = 3) {
  DynaTreeConfig C;
  C.NumParticles = Particles;
  C.Seed = Seed;
  return C;
}

/// Step function in 1D: 0 below 0, 5 above.
double stepFn(double X) { return X < 0.0 ? 0.0 : 5.0; }

} // namespace

TEST(DynaTreeTest, LearnsConstantFunction) {
  DynaTree M(smallConfig());
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  Rng R(1);
  for (int I = 0; I != 40; ++I) {
    X.push_back({R.nextUniform(-1, 1)});
    Y.push_back(3.0);
  }
  M.fit(X, Y);
  Prediction P = M.predict({0.5});
  EXPECT_NEAR(P.Mean, 3.0, 1e-6);
  EXPECT_LT(P.Variance, 0.01);
}

TEST(DynaTreeTest, LearnsStepFunction) {
  DynaTree M(smallConfig());
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  Rng R(2);
  for (int I = 0; I != 30; ++I) {
    double V = R.nextUniform(-1, 1);
    X.push_back({V});
    Y.push_back(stepFn(V));
  }
  M.fit(X, Y);
  for (int I = 0; I != 200; ++I) {
    double V = R.nextUniform(-1, 1);
    M.update({V}, stepFn(V));
  }
  EXPECT_NEAR(M.predict({-0.7}).Mean, 0.0, 0.4);
  EXPECT_NEAR(M.predict({0.7}).Mean, 5.0, 0.4);
  EXPECT_GT(M.averageLeafCount(), 1.5);
}

TEST(DynaTreeTest, DeterministicForEqualSeeds) {
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  Rng R(4);
  for (int I = 0; I != 50; ++I) {
    X.push_back({R.nextUniform(-1, 1), R.nextUniform(-1, 1)});
    Y.push_back(X.back()[0] * 2.0 + R.nextGaussian() * 0.1);
  }
  DynaTree M1(smallConfig(80, 9)), M2(smallConfig(80, 9));
  M1.fit(X, Y);
  M2.fit(X, Y);
  Prediction P1 = M1.predict({0.3, -0.2});
  Prediction P2 = M2.predict({0.3, -0.2});
  EXPECT_EQ(P1.Mean, P2.Mean);
  EXPECT_EQ(P1.Variance, P2.Variance);
}

TEST(DynaTreeTest, VarianceHigherOnComplexRegions) {
  // Constant leaves covering a steep ramp mix heterogeneous values, so
  // their predictive variance must exceed leaves on a flat plateau — the
  // "complex areas of the decision space stick out" mechanism the paper
  // relies on (Section 3.1).
  DynaTree M(smallConfig(200));
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  Rng R(5);
  for (int I = 0; I != 300; ++I) {
    double V = R.nextUniform(-1, 1);
    X.push_back({V});
    double Ramp = V < 0.0 ? 0.0 : 10.0 * V;
    Y.push_back(Ramp + 0.01 * R.nextGaussian());
  }
  M.fit(X, Y);
  auto bandVariance = [&M](double Lo, double Hi) {
    double Sum = 0.0;
    const int Steps = 21;
    for (int I = 0; I != Steps; ++I)
      Sum += M.predict({Lo + (Hi - Lo) * I / (Steps - 1)}).Variance;
    return Sum / Steps;
  };
  EXPECT_GT(bandVariance(0.3, 1.0), bandVariance(-1.0, -0.3));
}

TEST(DynaTreeTest, NoisyLeafHasHigherVarianceThanQuietLeaf) {
  DynaTree M(smallConfig(200));
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  Rng R(6);
  // Left half quiet, right half very noisy (heteroskedastic).
  for (int I = 0; I != 150; ++I) {
    double V = R.nextUniform(-1, 0);
    X.push_back({V});
    Y.push_back(2.0 + 0.01 * R.nextGaussian());
  }
  for (int I = 0; I != 150; ++I) {
    double V = R.nextUniform(0, 1);
    X.push_back({V});
    Y.push_back(2.0 + 1.0 * R.nextGaussian());
  }
  // Interleave for the SMC.
  std::vector<size_t> Order = R.sampleIndices(X.size(), X.size());
  std::vector<std::vector<double>> Xi;
  std::vector<double> Yi;
  for (size_t I : Order) {
    Xi.push_back(X[I]);
    Yi.push_back(Y[I]);
  }
  M.fit(Xi, Yi);
  EXPECT_GT(M.predict({0.5}).Variance, 3.0 * M.predict({-0.5}).Variance);
}

TEST(DynaTreeTest, AlcScoresNonNegativeAndFavourUncertainRegions) {
  DynaTree M(smallConfig(200));
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  Rng R(7);
  for (int I = 0; I != 150; ++I) {
    double V = R.nextUniform(-1, 0);
    X.push_back({V});
    Y.push_back(1.0 + 0.005 * R.nextGaussian());
  }
  for (int I = 0; I != 30; ++I) {
    double V = R.nextUniform(0, 1);
    X.push_back({V});
    Y.push_back(3.0 + 0.8 * R.nextGaussian());
  }
  std::vector<size_t> Order = R.sampleIndices(X.size(), X.size());
  std::vector<std::vector<double>> Xi;
  std::vector<double> Yi;
  for (size_t I : Order) {
    Xi.push_back(X[I]);
    Yi.push_back(Y[I]);
  }
  M.fit(Xi, Yi);

  std::vector<std::vector<double>> Ref;
  for (int I = 0; I != 100; ++I)
    Ref.push_back({R.nextUniform(-1, 1)});
  std::vector<std::vector<double>> Cands = {{-0.5}, {0.5}};
  std::vector<double> Scores = M.alcScores(Cands, Ref);
  EXPECT_GE(Scores[0], 0.0);
  EXPECT_GE(Scores[1], 0.0);
  EXPECT_GT(Scores[1], Scores[0]); // noisy side more informative
}

TEST(DynaTreeTest, AlmEqualsPredictiveVariance) {
  DynaTree M(smallConfig());
  std::vector<std::vector<double>> X = {{0.0}, {1.0}, {2.0}, {3.0}, {4.0}};
  std::vector<double> Y = {1.0, 2.0, 3.0, 2.0, 1.0};
  M.fit(X, Y);
  std::vector<std::vector<double>> Cands = {{0.5}, {3.5}};
  std::vector<double> Alm = M.almScores(Cands);
  EXPECT_DOUBLE_EQ(Alm[0], M.predict({0.5}).Variance);
  EXPECT_DOUBLE_EQ(Alm[1], M.predict({3.5}).Variance);
}

TEST(DynaTreeTest, EffectiveSampleSizeWithinBounds) {
  DynaTree M(smallConfig(100));
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  Rng R(8);
  for (int I = 0; I != 60; ++I) {
    X.push_back({R.nextUniform(-1, 1)});
    Y.push_back(std::sin(3 * X.back()[0]) + 0.05 * R.nextGaussian());
  }
  M.fit(X, Y);
  EXPECT_GE(M.effectiveSampleSize(), 1.0);
  EXPECT_LE(M.effectiveSampleSize(), 100.0);
}

TEST(DynaTreeTest, NumObservationsTracksUpdates) {
  DynaTree M(smallConfig());
  M.fit({{0.0}, {1.0}}, {1.0, 2.0});
  EXPECT_EQ(M.numObservations(), 2u);
  M.update({2.0}, 3.0);
  EXPECT_EQ(M.numObservations(), 3u);
}

TEST(DynaTreeTest, RefitResetsState) {
  DynaTree M(smallConfig());
  M.fit({{0.0}, {1.0}, {2.0}}, {1.0, 1.0, 1.0});
  M.fit({{5.0}, {6.0}}, {9.0, 9.0});
  EXPECT_EQ(M.numObservations(), 2u);
  EXPECT_NEAR(M.predict({5.5}).Mean, 9.0, 0.5);
}

TEST(DynaTreeTest, DefaultParticleCountIsPaperScale) {
  // Section 4.4 of the paper: N = 5000 particles.
  EXPECT_EQ(DynaTreeConfig().NumParticles, 5000u);
}

namespace {

/// Shared scenario for the determinism and statistics tests: 2-D step +
/// ramp surface with heteroskedastic noise, seeded batch plus sequential
/// updates.
struct Scenario {
  std::vector<std::vector<double>> X;
  std::vector<double> Y;

  explicit Scenario(int NumPoints = 300) {
    Rng R(42);
    for (int I = 0; I != NumPoints; ++I) {
      double A = R.nextUniform(-1, 1), B = R.nextUniform(-1, 1);
      X.push_back({A, B});
      double Sigma = A > 0.5 ? 0.5 : 0.05;
      Y.push_back(truth(A, B) + Sigma * R.nextGaussian());
    }
  }

  static double truth(double A, double B) {
    return (A < 0.0 ? 0.0 : 5.0) + 2.0 * B;
  }

  /// Fits the first 40 points, updates with the rest.
  void drive(DynaTree &M) const {
    M.fit({X.begin(), X.begin() + 40}, {Y.begin(), Y.begin() + 40});
    for (size_t I = 40; I != X.size(); ++I)
      M.update(X[I], Y[I]);
  }
};

} // namespace

TEST(DynaTreeTest, ParallelUpdatesBitIdenticalAcrossThreadCounts) {
  // The determinism contract of the particle engine: reweight, resample,
  // propagate, prediction, and ALC must be *bit-identical* with no pool
  // and with pools of any size, because every particle draws from a
  // counter-derived RNG stream and shards write disjoint state.
  Scenario S(220);
  DynaTreeConfig C = smallConfig(300, 11);

  DynaTree Serial(C);
  S.drive(Serial);
  Prediction Want = Serial.predict({0.3, -0.4});
  std::vector<double> WantAlc =
      Serial.alcScores({{0.3, -0.4}, {-0.6, 0.2}}, {S.X.begin(),
                                                    S.X.begin() + 60});

  for (unsigned Threads : {1u, 2u, 8u}) {
    Scheduler Pool(Threads);
    DynaTree M(C);
    M.setScheduler(&Pool);
    S.drive(M);
    Prediction Got = M.predict({0.3, -0.4});
    EXPECT_EQ(Want.Mean, Got.Mean) << Threads << " threads";
    EXPECT_EQ(Want.Variance, Got.Variance) << Threads << " threads";
    EXPECT_EQ(Serial.effectiveSampleSize(), M.effectiveSampleSize())
        << Threads << " threads";
    EXPECT_EQ(Serial.averageLeafCount(), M.averageLeafCount())
        << Threads << " threads";
    ScoreContext Ctx;
    Ctx.Pool = &Pool;
    EXPECT_EQ(WantAlc, M.alcScores({{0.3, -0.4}, {-0.6, 0.2}},
                                   {S.X.begin(), S.X.begin() + 60}, Ctx))
        << Threads << " threads";
  }
}

TEST(DynaTreeTest, IdenticallySeededRunsBitIdentical) {
  Scenario S(200);
  DynaTree M1(smallConfig(200, 21)), M2(smallConfig(200, 21));
  S.drive(M1);
  S.drive(M2);
  Prediction P1 = M1.predict({0.5, 0.5});
  Prediction P2 = M2.predict({0.5, 0.5});
  EXPECT_EQ(P1.Mean, P2.Mean);
  EXPECT_EQ(P1.Variance, P2.Variance);
  EXPECT_EQ(M1.effectiveSampleSize(), M2.effectiveSampleSize());
  EXPECT_EQ(M1.averageLeafCount(), M2.averageLeafCount());
  EXPECT_EQ(M1.averageDepth(), M2.averageDepth());
}

TEST(DynaTreeTest, EnsembleStatisticsMatchPreRefactorBaseline) {
  // Regression bounds recorded from the pre-SoA/pre-COW implementation on
  // this exact scenario at N=1000 (seed 7): ESS 992.99, average leaves
  // 18.38, average max depth 6.09, grid RMSE 0.335.  The rebuilt engine
  // must stay in the same statistical regime (the trajectories differ —
  // per-particle RNG streams replaced the shared generator — so the
  // comparison is tolerance-based, not bitwise).
  Scenario S(300);
  DynaTreeConfig C;
  C.NumParticles = 1000;
  C.Seed = 7;
  DynaTree M(C);
  S.drive(M);

  EXPECT_GE(M.effectiveSampleSize(), 800.0); // healthy, near-uniform weights
  EXPECT_LE(M.effectiveSampleSize(), 1000.0);
  EXPECT_GE(M.averageLeafCount(), 11.0); // 18.38 +/- 40%
  EXPECT_LE(M.averageLeafCount(), 26.0);
  EXPECT_GE(M.averageDepth(), 3.6); // 6.09 +/- 40%
  EXPECT_LE(M.averageDepth(), 8.6);

  double Se = 0.0;
  int Num = 0;
  for (double A = -0.9; A <= 0.95; A += 0.2)
    for (double B = -0.9; B <= 0.95; B += 0.2) {
      double D = M.predict({A, B}).Mean - Scenario::truth(A, B);
      Se += D * D;
      ++Num;
    }
  EXPECT_LE(std::sqrt(Se / Num), 0.5); // pre-refactor engine scored 0.335
}

TEST(DynaTreeTest, ThreadedLearningMatchesSerialUnderResampling) {
  // End-to-end shape of the COW machinery: long enough for pending lists
  // to overflow, trees to be cloned, and prunes to splice chunk lists —
  // all under a pool — with bitwise-equal outputs.
  Scenario S(400);
  DynaTreeConfig C = smallConfig(150, 31);
  DynaTree Serial(C), Threaded(C);
  Scheduler Pool(4);
  Threaded.setScheduler(&Pool);
  S.drive(Serial);
  S.drive(Threaded);
  for (double A = -0.8; A <= 0.9; A += 0.4)
    for (double B = -0.8; B <= 0.9; B += 0.4) {
      Prediction Ps = Serial.predict({A, B});
      Prediction Pt = Threaded.predict({A, B});
      EXPECT_EQ(Ps.Mean, Pt.Mean);
      EXPECT_EQ(Ps.Variance, Pt.Variance);
    }
}

TEST(DynaTreeTest, DedupScoringBitIdenticalToNaiveReference) {
  // The unique-run contract: predict/almScores/alcScores walk each
  // (tree, pending) run once and repeat the accumulation per alias, so
  // they must be *bit-identical* to the naive per-particle reference —
  // serially, across worker counts, and under varied steal seeds.
  Scenario S(260);
  DynaTreeConfig C = smallConfig(250, 13);
  DynaTree M(C);
  S.drive(M);
  ASSERT_GT(M.duplicateFraction(), 0.0) << "scenario never aliased a tree";

  FlatRows Cands;
  Rng R(23);
  for (int I = 0; I != 40; ++I)
    Cands.push({R.nextUniform(-1, 1), R.nextUniform(-1, 1)});
  FlatRows Ref(S.X.begin(), S.X.begin() + 60);

  // Naive reference on the very same ensemble state.
  DynaTreeNaiveReference Naive(M);
  Prediction WantP = Naive.predict({0.3, -0.4});
  std::vector<double> WantAlm = Naive.almScores(Cands);
  std::vector<double> WantAlc = Naive.alcScores(Cands, Ref);

  Prediction GotP = M.predict({0.3, -0.4});
  EXPECT_EQ(WantP.Mean, GotP.Mean);
  EXPECT_EQ(WantP.Variance, GotP.Variance);
  EXPECT_EQ(WantAlm, M.almScores(Cands));
  EXPECT_EQ(WantAlc, M.alcScores(Cands, Ref));

  for (uint64_t StealSeed : {0x57ea1ull, 0xfeedull}) {
    for (unsigned Threads : {1u, 8u}) {
      Scheduler::Options O;
      O.Threads = Threads;
      O.StealSeed = StealSeed;
      Scheduler Pool(O);
      ScoreContext Ctx;
      Ctx.Pool = &Pool;
      EXPECT_EQ(WantAlm, M.almScores(Cands, Ctx))
          << Threads << " threads, steal seed " << StealSeed;
      EXPECT_EQ(WantAlc, M.alcScores(Cands, Ref, Ctx))
          << Threads << " threads, steal seed " << StealSeed;
    }
  }
}

TEST(DynaTreeTest, DedupBitIdenticalWhenModelTrainedUnderPool) {
  // Same contract with the *training* sharded too: a pooled model's run
  // index must describe the same ensemble the serial model built.
  Scenario S(260);
  DynaTreeConfig C = smallConfig(250, 13);
  DynaTree Serial(C), Pooled(C);
  S.drive(Serial);
  Scheduler Pool(4);
  Pooled.setScheduler(&Pool);
  S.drive(Pooled);
  EXPECT_EQ(Serial.uniqueRunCount(), Pooled.uniqueRunCount());
  EXPECT_EQ(Serial.duplicateFraction(), Pooled.duplicateFraction());
  DynaTreeNaiveReference Naive(Serial); // vs the pooled dedup path
  FlatRows Cands = {{0.3, -0.4}, {-0.6, 0.2}, {0.9, 0.9}};
  FlatRows Ref(S.X.begin(), S.X.begin() + 50);
  ScoreContext Ctx;
  Ctx.Pool = &Pool;
  EXPECT_EQ(Naive.almScores(Cands), Pooled.almScores(Cands, Ctx));
  EXPECT_EQ(Naive.alcScores(Cands, Ref), Pooled.alcScores(Cands, Ref, Ctx));
}

TEST(DynaTreeTest, DedupBitIdenticalOnWeightConcentratedState) {
  // bench_dynatree_hotpath's second scoring state, at test size: one
  // strongly surprising observation collapses resampling onto the few
  // particles that explain it, so nearly every particle aliases an
  // earlier one — where dedup saves most, and where a run-boundary bug
  // would show first.  Same 6-d surface and outlier as the bench.
  auto Truth = [](const std::vector<double> &Row) {
    return Row[0] * 2.0 + Row[1] * Row[1] - Row[2] +
           (Row[3] > 0.0 ? 1.5 : 0.0) + (Row[4] > 0.4 ? 2.0 : 0.0);
  };
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  Rng R(2027);
  for (int I = 0; I != 60; ++I) {
    std::vector<double> Row(6);
    for (double &V : Row)
      V = R.nextUniform(-1, 1);
    double Sigma = Row[5] > 0.3 ? 0.4 : 0.05;
    Y.push_back(Truth(Row) + Sigma * R.nextGaussian());
    X.push_back(std::move(Row));
  }
  DynaTree M(smallConfig(400, 17));
  M.fit({X.begin(), X.begin() + 40}, {Y.begin(), Y.begin() + 40});
  for (size_t I = 40; I != X.size(); ++I)
    M.update(X[I], Y[I]);
  M.update({0.9, 0.9, -0.9, 0.9, 0.9, -0.9}, 80.0);
  ASSERT_GT(M.duplicateFraction(), 0.9) << "outlier did not concentrate";

  FlatRows Cands, Ref;
  Rng Draw(404);
  for (int I = 0; I != 60; ++I) {
    std::vector<double> Row(6);
    for (double &V : Row)
      V = Draw.nextUniform(-1, 1);
    (I < 40 ? Cands : Ref).push(Row);
  }
  DynaTreeNaiveReference Naive(M);
  std::vector<double> WantAlm = Naive.almScores(Cands);
  std::vector<double> WantAlc = Naive.alcScores(Cands, Ref);
  for (unsigned Threads : {0u, 2u}) {
    std::unique_ptr<Scheduler> Pool;
    if (Threads != 0)
      Pool = std::make_unique<Scheduler>(Threads);
    ScoreContext Ctx;
    Ctx.Pool = Pool.get();
    EXPECT_EQ(WantAlm, M.almScores(Cands, Ctx)) << Threads << " threads";
    EXPECT_EQ(WantAlc, M.alcScores(Cands, Ref, Ctx)) << Threads << " threads";
  }
}

TEST(DynaTreeTest, RunIndexCountersSane) {
  // A seed batch too small to grow (needs 2*MinLeafSize effective points)
  // or overflow the pending list keeps every particle aliasing the one
  // root tree: exactly one unique run.
  DynaTree M(smallConfig(300, 5));
  M.fit({{0.0}, {0.2}, {0.4}, {0.6}}, {1.0, 1.1, 0.9, 1.0});
  EXPECT_EQ(M.uniqueRunCount(), 1u);
  EXPECT_NEAR(M.duplicateFraction(), 1.0 - 1.0 / 300.0, 1e-12);

  // Drive real updates: runs multiply as particles diverge, but stay
  // bounded by the ensemble size, and the fraction stays in [0, 1].
  Rng R(31);
  for (int I = 0; I != 80; ++I) {
    double V = R.nextUniform(-1, 1);
    M.update({V}, stepFn(V) + 0.05 * R.nextGaussian());
  }
  EXPECT_GE(M.uniqueRunCount(), 1u);
  EXPECT_LE(M.uniqueRunCount(), 300u);
  EXPECT_GE(M.duplicateFraction(), 0.0);
  EXPECT_LE(M.duplicateFraction(), 1.0);

  // The instrumentation must account walks exactly: naive terms are
  // candidates * particles; the dedup path walks candidates * runs.
  ScoreStats Stats;
  ScoreContext Ctx;
  Ctx.Stats = &Stats;
  FlatRows Cands = {{-0.5}, {0.1}, {0.7}};
  M.almScores(Cands, Ctx);
  EXPECT_EQ(Stats.CandidatesScored.load(), 3u);
  EXPECT_EQ(Stats.ParticleTerms.load(), 3u * 300u);
  EXPECT_EQ(Stats.UniqueLeafWalks.load(), 3u * M.uniqueRunCount());
  EXPECT_GE(Stats.dedupFactor(), 1.0);

  FlatRows Ref = {{-0.8}, {-0.2}, {0.4}, {0.9}};
  M.alcScores(Cands, Ref, Ctx);
  EXPECT_EQ(Stats.CandidatesScored.load(), 6u);
  EXPECT_EQ(Stats.ParticleTerms.load(), 3u * 300u + (3u + 4u) * 300u);
  EXPECT_EQ(Stats.UniqueLeafWalks.load(),
            (3u + 3u + 4u) * M.uniqueRunCount());
}

TEST(DynaTreeTest, PostResampleRunsAreContiguousAliases) {
  // After a resampling update, the duplicate fraction the run index
  // reports must match what systematic resampling implies: N particles
  // in at most N runs, and a concentrated posterior (an outlier
  // observation) collapses many particles onto few survivors.
  Scenario S(150);
  DynaTreeConfig C = smallConfig(400, 19);
  DynaTree M(C);
  S.drive(M);
  double Before = M.duplicateFraction();
  // A string of far-outlier updates concentrates the weights.
  for (int I = 0; I != 4; ++I)
    M.update({0.95, 0.95}, 60.0 + double(I));
  EXPECT_GT(M.duplicateFraction(), Before);
  EXPECT_LE(M.uniqueRunCount(),
            size_t(double(C.NumParticles) * (1.0 - M.duplicateFraction())) + 1);
}

TEST(DynaTreeTest, TreesGrowWithStructuredData) {
  DynaTree M(smallConfig(150));
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  Rng R(9);
  for (int I = 0; I != 400; ++I) {
    double A = R.nextUniform(-2, 2), B = R.nextUniform(-2, 2);
    X.push_back({A, B});
    Y.push_back(stepFn(A) + stepFn(B) + 0.02 * R.nextGaussian());
  }
  M.fit(X, Y);
  EXPECT_GT(M.averageLeafCount(), 3.0);
  EXPECT_GT(M.averageDepth(), 1.0);
}
