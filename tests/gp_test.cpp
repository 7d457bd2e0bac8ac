//===- tests/gp_test.cpp - Gaussian-process tests -------------*- C++ -*-===//

#include "gp/GaussianProcess.h"
#include "support/Rng.h"
#include "support/Scheduler.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace alic;

namespace alic {

/// Exact ALC in back-substitution form, as alcScores() computed it before
/// the forward-solve form: w_x = K^-1 k_x by a full solve, then
/// var(x) = s - k_x . w_x and cov(r, x) = k(r, x) - k_r . w_x.  The two
/// forms are equal in exact arithmetic; this one rounds differently.
class GpBackSubstitutionReference {
public:
  explicit GpBackSubstitutionReference(const GaussianProcess &M) : M(M) {}

  std::vector<double> alcScores(const FlatRows &Candidates,
                                const FlatRows &Reference) const {
    size_t N = M.Alpha.size();
    const GpHyperParams &P = M.Params;
    std::vector<double> Scores(Candidates.size());
    for (size_t C = 0; C != Candidates.size(); ++C) {
      RowRef X = Candidates[C];
      std::vector<double> Kx(N);
      M.kernelRow(M.DataX, X, Kx.data(), 0, N);
      std::vector<double> Wx = M.Factor->solve(Kx);
      double VarX = P.SignalVariance;
      for (size_t I = 0; I != N; ++I)
        VarX -= Kx[I] * Wx[I];
      VarX = std::max(VarX, 1e-12) + P.NoiseVariance;
      double Total = 0.0;
      for (size_t R = 0; R != Reference.size(); ++R) {
        std::vector<double> Kr(N);
        M.kernelRow(M.DataX, Reference[R], Kr.data(), 0, N);
        double Cov = M.kernel(Reference[R], X);
        for (size_t I = 0; I != N; ++I)
          Cov -= Kr[I] * Wx[I];
        Total += Cov * Cov / VarX;
      }
      Scores[C] = Total;
    }
    return Scores;
  }

private:
  const GaussianProcess &M;
};

} // namespace alic

namespace {

GpConfig fixedConfig(double Length = 0.7, double Noise = 1e-4) {
  GpConfig C;
  C.OptimizeHyperParams = false;
  C.Init.SignalVariance = 1.0;
  C.Init.LengthScale = Length;
  C.Init.NoiseVariance = Noise;
  return C;
}

/// Deterministic regression sample in 2 dims.
void makeSample(size_t N, uint64_t Seed, std::vector<std::vector<double>> &X,
                std::vector<double> &Y) {
  Rng R(Seed);
  X.clear();
  Y.clear();
  for (size_t I = 0; I != N; ++I) {
    X.push_back({R.nextUniform(-2, 2), R.nextUniform(-2, 2)});
    Y.push_back(std::sin(X.back()[0]) + 0.3 * X.back()[1] +
                0.02 * R.nextGaussian());
  }
}

} // namespace

TEST(GpTest, InterpolatesCleanData) {
  GaussianProcess M(fixedConfig());
  std::vector<std::vector<double>> X = {{-1.0}, {-0.3}, {0.4}, {1.0}};
  std::vector<double> Y;
  for (const auto &Xi : X)
    Y.push_back(std::sin(2.0 * Xi[0]));
  M.fit(X, Y);
  for (size_t I = 0; I != X.size(); ++I)
    EXPECT_NEAR(M.predict(X[I]).Mean, Y[I], 5e-3);
}

TEST(GpTest, VarianceSmallAtDataLargeFarAway) {
  GaussianProcess M(fixedConfig());
  M.fit({{0.0}, {0.5}}, {1.0, 2.0});
  EXPECT_LT(M.predict({0.0}).Variance, 0.01);
  EXPECT_GT(M.predict({8.0}).Variance, 0.9); // back to the prior
}

TEST(GpTest, MeanRevertsToPriorFarAway) {
  GaussianProcess M(fixedConfig());
  M.fit({{0.0}, {1.0}}, {4.0, 6.0});
  EXPECT_NEAR(M.predict({50.0}).Mean, 5.0, 1e-6); // data mean
}

TEST(GpTest, HyperOptimizationImprovesLikelihood) {
  Rng R(3);
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  for (int I = 0; I != 40; ++I) {
    X.push_back({R.nextUniform(-2, 2)});
    Y.push_back(std::sin(3.0 * X.back()[0]) + 0.05 * R.nextGaussian());
  }
  GaussianProcess Fixed(fixedConfig(5.0, 0.5)); // bad hypers
  Fixed.fit(X, Y);
  GpConfig Opt;
  Opt.OptimizeHyperParams = true;
  Opt.OptimizerRestarts = 30;
  GaussianProcess Tuned(Opt);
  Tuned.fit(X, Y);
  EXPECT_GT(Tuned.logMarginalLikelihood(), Fixed.logMarginalLikelihood());
}

TEST(GpTest, UpdateRefitsAndAbsorbsPoint) {
  GaussianProcess M(fixedConfig());
  M.fit({{0.0}, {1.0}}, {0.0, 1.0});
  M.update({2.0}, 4.0);
  EXPECT_EQ(M.numObservations(), 3u);
  EXPECT_NEAR(M.predict({2.0}).Mean, 4.0, 0.05);
}

TEST(GpTest, AlcPositiveAndLocalized) {
  GaussianProcess M(fixedConfig(0.5));
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  for (double V = -2.0; V <= 0.0; V += 0.25) {
    X.push_back({V});
    Y.push_back(V * V);
  }
  M.fit(X, Y);
  // Reference points on the unexplored right side.
  std::vector<std::vector<double>> Ref;
  for (double V = 0.5; V <= 2.0; V += 0.25)
    Ref.push_back({V});
  std::vector<double> Scores =
      M.alcScores({{1.2}, {-1.2}}, Ref);
  EXPECT_GT(Scores[0], 0.0);
  // A candidate inside the unexplored region helps the reference set more.
  EXPECT_GT(Scores[0], Scores[1]);
}

TEST(GpTest, DeterministicGivenSeed) {
  Rng R(5);
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  for (int I = 0; I != 20; ++I) {
    X.push_back({R.nextUniform(-1, 1)});
    Y.push_back(X.back()[0]);
  }
  GpConfig C;
  C.Seed = 42;
  GaussianProcess M1(C), M2(C);
  M1.fit(X, Y);
  M2.fit(X, Y);
  EXPECT_EQ(M1.predict({0.2}).Mean, M2.predict({0.2}).Mean);
  EXPECT_EQ(M1.hyperParams().LengthScale, M2.hyperParams().LengthScale);
}

TEST(GpTest, IncrementalUpdateMatchesFromScratchFit) {
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  makeSample(48, 7, X, Y);

  // One model seeds on 16 points and absorbs the rest through the O(n^2)
  // incremental path; the other sees the full batch at once.
  GaussianProcess Inc(fixedConfig());
  Inc.fit({X.begin(), X.begin() + 16}, {Y.begin(), Y.begin() + 16});
  for (size_t I = 16; I != X.size(); ++I)
    Inc.update(X[I], Y[I]);

  GaussianProcess Scratch(fixedConfig());
  Scratch.fit(X, Y);

  ASSERT_EQ(Inc.numObservations(), Scratch.numObservations());
  Rng R(8);
  for (int Probe = 0; Probe != 50; ++Probe) {
    std::vector<double> P = {R.nextUniform(-2, 2), R.nextUniform(-2, 2)};
    Prediction A = Inc.predict(P), B = Scratch.predict(P);
    EXPECT_NEAR(A.Mean, B.Mean, 1e-9);
    EXPECT_NEAR(A.Variance, B.Variance, 1e-9);
  }
  EXPECT_NEAR(Inc.logMarginalLikelihood(), Scratch.logMarginalLikelihood(),
              1e-9);
}

TEST(GpTest, IncrementalUpdateSurvivesNonFiniteObservation) {
  GaussianProcess M(fixedConfig());
  M.fit({{0.0}, {1.0}}, {0.0, 1.0});
  double Before = M.predict({0.5}).Mean;
  // A NaN feature defeats both the rank-1 extension and the fallback
  // refactorization; the model must drop the point and stay usable.
  M.update({std::nan("")}, 2.0);
  EXPECT_EQ(M.numObservations(), 2u);
  EXPECT_EQ(M.predict({0.5}).Mean, Before);
  // And a well-formed observation still lands afterwards.
  M.update({2.0}, 4.0);
  EXPECT_EQ(M.numObservations(), 3u);
  EXPECT_NEAR(M.predict({2.0}).Mean, 4.0, 0.05);
}

TEST(GpTest, ParallelAlcBitIdenticalToSequential) {
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  makeSample(60, 13, X, Y);
  GaussianProcess M(fixedConfig());
  M.fit(X, Y);

  std::vector<std::vector<double>> Cands, Ref;
  Rng R(14);
  for (int I = 0; I != 100; ++I)
    Cands.push_back({R.nextUniform(-2, 2), R.nextUniform(-2, 2)});
  for (int I = 0; I != 30; ++I)
    Ref.push_back({R.nextUniform(-2, 2), R.nextUniform(-2, 2)});

  std::vector<double> Sequential = M.alcScores(Cands, Ref);
  for (unsigned Threads : {1u, 3u, 7u}) {
    Scheduler Pool(Threads);
    M.setScheduler(&Pool);
    EXPECT_EQ(M.alcScores(Cands, Ref), Sequential)
        << "thread count " << Threads;
    M.setScheduler(nullptr);
  }
}

TEST(GpTest, ForwardSolveAlcMatchesBackSubstitution) {
  // alcScores() scores in forward-solve form (v = L^-1 k); the
  // back-substitution form it replaced must agree to rounding, and the
  // forward-solve scores must be bitwise equal at any worker count.
  for (size_t N : {50u, 500u}) {
    std::vector<std::vector<double>> X;
    std::vector<double> Y;
    makeSample(N, 41, X, Y);
    GaussianProcess M(fixedConfig(0.7, 1e-2));
    M.fit(X, Y);
    std::vector<std::vector<double>> Cands, Ref;
    Rng R(42);
    for (int I = 0; I != 70; ++I)
      Cands.push_back({R.nextUniform(-2.5, 2.5), R.nextUniform(-2.5, 2.5)});
    for (int I = 0; I != 40; ++I)
      Ref.push_back({R.nextUniform(-2, 2), R.nextUniform(-2, 2)});

    std::vector<double> Want =
        GpBackSubstitutionReference(M).alcScores(Cands, Ref);
    std::vector<double> Got = M.alcScores(Cands, Ref);
    ASSERT_EQ(Got.size(), Want.size());
    for (size_t C = 0; C != Got.size(); ++C)
      EXPECT_NEAR(Got[C], Want[C], 1e-9 * std::abs(Want[C]))
          << "n=" << N << " candidate " << C;

    for (unsigned Threads : {1u, 8u}) {
      Scheduler Pool(Threads);
      M.setScheduler(&Pool);
      EXPECT_EQ(M.alcScores(Cands, Ref), Got)
          << "n=" << N << ", " << Threads << " workers";
      M.setScheduler(nullptr);
    }
  }
}

TEST(GpTest, HandlesDuplicateInputsViaNugget) {
  GaussianProcess M(fixedConfig(0.7, 1e-3));
  // Two noisy observations at the same x must not break the factorization.
  M.fit({{1.0}, {1.0}, {2.0}}, {3.0, 3.2, 5.0});
  Prediction P = M.predict({1.0});
  EXPECT_NEAR(P.Mean, 3.1, 0.2);
}

TEST(GpTest, ExtendMatchesFromScratchFitBitwiseAtN500) {
  // The tentpole pin: 400 incremental O(n^2) extensions produce exactly
  // the state of one O(n^3) batch fit — bit for bit, at the scale where
  // the old Matrix-backed extend() paid an (n+1)^2 copy per step.
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  makeSample(500, 29, X, Y);

  GaussianProcess Inc(fixedConfig());
  Inc.fit({X.begin(), X.begin() + 100}, {Y.begin(), Y.begin() + 100});
  for (size_t I = 100; I != X.size(); ++I)
    Inc.update(X[I], Y[I]);

  GaussianProcess Scratch(fixedConfig());
  Scratch.fit(X, Y);

  ASSERT_EQ(Inc.numObservations(), 500u);
  ASSERT_EQ(Scratch.numObservations(), 500u);
  Rng R(30);
  for (int Probe = 0; Probe != 25; ++Probe) {
    std::vector<double> P = {R.nextUniform(-2, 2), R.nextUniform(-2, 2)};
    Prediction A = Inc.predict(P), B = Scratch.predict(P);
    EXPECT_EQ(A.Mean, B.Mean);
    EXPECT_EQ(A.Variance, B.Variance);
  }
  EXPECT_EQ(Inc.logMarginalLikelihood(), Scratch.logMarginalLikelihood());
}

TEST(GpTest, PredictBatchBitIdenticalToPredict) {
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  makeSample(80, 31, X, Y);
  std::vector<std::vector<double>> ProbeRows;
  Rng R(32);
  for (int I = 0; I != 150; ++I) // > one PredictBlock, not a multiple
    ProbeRows.push_back({R.nextUniform(-2, 2), R.nextUniform(-2, 2)});
  FlatRows Probes(ProbeRows);

  GaussianProcess M(fixedConfig());
  M.fit(X, Y);
  std::vector<Prediction> Batch(Probes.size());
  M.predictBatch(Probes, Probes.size(), Batch.data());
  for (size_t I = 0; I != Probes.size(); ++I) {
    Prediction One = M.predict(Probes[I]);
    EXPECT_EQ(Batch[I].Mean, One.Mean) << I;
    EXPECT_EQ(Batch[I].Variance, One.Variance) << I;
  }
}

TEST(GpTest, BatchedAlmScoresBitIdenticalToPredictLoop) {
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  makeSample(70, 33, X, Y);
  std::vector<std::vector<double>> CandRows;
  Rng R(34);
  for (int I = 0; I != 100; ++I)
    CandRows.push_back({R.nextUniform(-2, 2), R.nextUniform(-2, 2)});
  FlatRows Cands(CandRows);

  GaussianProcess M(fixedConfig());
  M.fit(X, Y);
  // The blocked multi-RHS path must equal per-candidate predict()...
  std::vector<double> Scores = M.almScores(Cands);
  ASSERT_EQ(Scores.size(), Cands.size());
  for (size_t I = 0; I != Cands.size(); ++I)
    EXPECT_EQ(Scores[I], M.predict(Cands[I]).Variance) << I;
  // ...and stay bit-identical when sharded across workers.
  for (unsigned Threads : {1u, 7u}) {
    Scheduler Pool(Threads);
    M.setScheduler(&Pool);
    EXPECT_EQ(M.almScores(Cands), Scores) << "thread count " << Threads;
    M.setScheduler(nullptr);
  }
}

namespace {

/// A fixed pool of feature rows with their targets, addressed by id.
struct IdPool {
  FlatRows Rows;
  std::vector<double> Y;

  IdPool(size_t N, uint64_t Seed) {
    std::vector<std::vector<double>> X;
    makeSample(N, Seed, X, Y);
    Rows = FlatRows(X);
  }

  FlatRows gather(const std::vector<uint32_t> &Ids) const {
    FlatRows Out;
    for (uint32_t Id : Ids)
      Out.push(Rows[Id]);
    return Out;
  }
};

/// One round's draw: candidate ids with repeats, and reference ids that
/// repeat and overlap the candidates.
void drawIds(Rng &R, size_t PoolSize, std::vector<uint32_t> &Cand,
             std::vector<uint32_t> &Ref) {
  Cand.clear();
  Ref.clear();
  for (int I = 0; I != 40; ++I)
    Cand.push_back(uint32_t(R.nextBounded(PoolSize)));
  for (int I = 0; I != 5; ++I)
    Cand.push_back(Cand[size_t(I) * 3]);
  for (int I = 0; I != 20; ++I)
    Ref.push_back(uint32_t(R.nextBounded(PoolSize)));
  Ref.push_back(Ref.front());
  for (int I = 0; I != 4; ++I)
    Ref.push_back(Cand[size_t(I) * 7]);
}

} // namespace

TEST(GpTest, PooledScoresBitIdenticalToFresh) {
  // Scores with pool ids come from per-id forward solves extended as the
  // factor grows; they must equal a twin's from-scratch solves bitwise,
  // round after round of updates, at any worker count and steal order.
  IdPool P(300, 51);
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  makeSample(40, 52, X, Y);
  constexpr int Rounds = 32;

  // The twin gets no ids: its scores are the from-scratch reference.
  std::vector<std::vector<double>> WantAlm, WantAlc;
  {
    GaussianProcess Twin(fixedConfig(0.7, 1e-3));
    Twin.fit(X, Y);
    Rng R(53);
    std::vector<uint32_t> Cand, Ref;
    for (int Round = 0; Round != Rounds; ++Round) {
      drawIds(R, P.Rows.size(), Cand, Ref);
      WantAlm.push_back(Twin.almScores(P.gather(Cand)));
      WantAlc.push_back(Twin.alcScores(P.gather(Cand), P.gather(Ref)));
      Twin.update(P.Rows[Cand[0]], P.Y[Cand[0]]);
    }
  }

  auto runPooled = [&](Scheduler *Pool, const char *Label) {
    GaussianProcess M(fixedConfig(0.7, 1e-3));
    M.setScheduler(Pool);
    M.fit(X, Y);
    Rng R(53);
    std::vector<uint32_t> Cand, Ref;
    for (int Round = 0; Round != Rounds; ++Round) {
      drawIds(R, P.Rows.size(), Cand, Ref);
      ScoreContext Ctx;
      Ctx.ShardSize = 8;
      Ctx.CandidateIds = Cand.data();
      Ctx.ReferenceIds = Ref.data();
      FlatRows CandRows = P.gather(Cand), RefRows = P.gather(Ref);
      ASSERT_EQ(M.almScores(CandRows, Ctx), WantAlm[size_t(Round)])
          << Label << ", round " << Round;
      ASSERT_EQ(M.alcScores(CandRows, RefRows, Ctx), WantAlc[size_t(Round)])
          << Label << ", round " << Round;
      M.update(P.Rows[Cand[0]], P.Y[Cand[0]]);
    }
  };

  runPooled(nullptr, "sequential");
  for (unsigned Threads : {1u, 8u})
    for (uint64_t StealSeed : {0x5eedull, 0xabcdefull}) {
      Scheduler::Options Opts;
      Opts.Threads = Threads;
      Opts.StealSeed = StealSeed;
      Opts.JitterSeed = hashCombine({StealSeed, 0x11ffull});
      Scheduler Pool(Opts);
      std::string Label = std::to_string(Threads) + " workers, steal seed " +
                          std::to_string(StealSeed);
      runPooled(&Pool, Label.c_str());
    }
}

TEST(GpTest, PooledScoresFollowRefitAndFallback) {
  // A second fit() on new data, and an update() whose extension falls
  // back and restores the old factor, both void the per-id solves: the
  // next scores with ids equal a fresh model's without them.
  IdPool P(120, 61);
  std::vector<std::vector<double>> XA, XB;
  std::vector<double> YA, YB;
  makeSample(30, 62, XA, YA);
  makeSample(45, 63, XB, YB);
  std::vector<uint32_t> Cand, Ref;
  Rng R(64);
  drawIds(R, P.Rows.size(), Cand, Ref);
  FlatRows CandRows = P.gather(Cand), RefRows = P.gather(Ref);
  ScoreContext Ctx;
  Ctx.CandidateIds = Cand.data();
  Ctx.ReferenceIds = Ref.data();

  GaussianProcess M(fixedConfig(0.7, 1e-3));
  M.fit(XA, YA);
  M.alcScores(CandRows, RefRows, Ctx); // fills the solves for fit A
  M.almScores(CandRows, Ctx);

  GaussianProcess Fresh(fixedConfig(0.7, 1e-3));
  Fresh.fit(XB, YB);
  M.fit(XB, YB);
  EXPECT_EQ(M.alcScores(CandRows, RefRows, Ctx),
            Fresh.alcScores(CandRows, RefRows));
  EXPECT_EQ(M.almScores(CandRows, Ctx), Fresh.almScores(CandRows));

  // A NaN feature defeats the extension and the fallback refit; the
  // model drops the point and restores its factor.
  M.update({std::nan(""), 0.0}, 1.0);
  ASSERT_EQ(M.numObservations(), XB.size());
  EXPECT_EQ(M.alcScores(CandRows, RefRows, Ctx),
            Fresh.alcScores(CandRows, RefRows));
  EXPECT_EQ(M.almScores(CandRows, Ctx), Fresh.almScores(CandRows));

  // And the solves keep extending after the restore.
  M.update(P.Rows[Cand[1]], P.Y[Cand[1]]);
  Fresh.update(P.Rows[Cand[1]], P.Y[Cand[1]]);
  EXPECT_EQ(M.alcScores(CandRows, RefRows, Ctx),
            Fresh.alcScores(CandRows, RefRows));
  EXPECT_EQ(M.almScores(CandRows, Ctx), Fresh.almScores(CandRows));
}

TEST(GpTest, WorkCountersCountOnlyMissingRows) {
  IdPool P(200, 71);
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  makeSample(50, 72, X, Y);
  GaussianProcess M(fixedConfig(0.7, 1e-3));
  M.fit(X, Y);

  // Distinct ids, none shared between candidates and references.
  std::vector<uint32_t> Cand, Ref;
  for (uint32_t I = 0; I != 30; ++I)
    Cand.push_back(I * 5);
  for (uint32_t I = 0; I != 12; ++I)
    Ref.push_back(I * 5 + 2);
  FlatRows CandRows = P.gather(Cand), RefRows = P.gather(Ref);
  ScoreContext WithIds;
  WithIds.CandidateIds = Cand.data();
  WithIds.ReferenceIds = Ref.data();

  auto counts = [](const ScoreStats &S) {
    return std::make_pair(S.KernelEvals.load(), S.SolveTerms.load());
  };
  const uint64_t N = 50, Rows = 42;

  ScoreStats Fresh;
  ScoreContext NoIds;
  NoIds.Stats = &Fresh;
  M.alcScores(CandRows, RefRows, NoIds);
  EXPECT_EQ(counts(Fresh), std::make_pair(Rows * N, Rows * N * (N - 1) / 2));

  // The first call with ids adds what a call without them adds; a second
  // identical call at the same n adds nothing.
  ScoreStats Pooled;
  WithIds.Stats = &Pooled;
  M.alcScores(CandRows, RefRows, WithIds);
  EXPECT_EQ(counts(Pooled), counts(Fresh));
  M.alcScores(CandRows, RefRows, WithIds);
  M.almScores(CandRows, WithIds);
  EXPECT_EQ(counts(Pooled), counts(Fresh));

  // One update costs each touched row one kernel evaluation and the new
  // factor row's N multiply-adds.
  M.update(P.Rows[199], P.Y[199]);
  ScoreStats Step;
  WithIds.Stats = &Step;
  M.alcScores(CandRows, RefRows, WithIds);
  EXPECT_EQ(counts(Step), std::make_pair(Rows, Rows * N));
}
