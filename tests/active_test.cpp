//===- tests/active_test.cpp - active-learning loop tests -----*- C++ -*-===//

#include "core/ActiveLearner.h"
#include "dynatree/DynaTree.h"
#include "exp/Dataset.h"
#include "gp/GaussianProcess.h"
#include "spapt/Suite.h"
#include "support/Scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace alic;

namespace {

struct Fixture {
  std::unique_ptr<SpaptBenchmark> B;
  Dataset D;

  explicit Fixture(const char *Name = "mvt", size_t NumConfigs = 400) {
    B = createSpaptBenchmark(Name);
    D = buildDataset(*B, NumConfigs, 0.75, 10, 123);
  }

  ActiveLearnerConfig config(unsigned Nmax) const {
    ActiveLearnerConfig C;
    C.NumInitial = 4;
    C.InitObservations = 10;
    C.MaxTrainingExamples = Nmax;
    C.CandidatesPerIteration = 30;
    C.ReferenceSetSize = 30;
    C.Seed = 11;
    return C;
  }

  DynaTreeConfig modelConfig() const {
    DynaTreeConfig C;
    C.NumParticles = 60;
    C.Seed = 13;
    return C;
  }
};

/// Forwards to a wrapped model, checking that every id the learner
/// passes names the pool row it scores, then dropping the ids.
class IdCheckingModel final : public SurrogateModel {
public:
  IdCheckingModel(SurrogateModel &Inner, const ConfigPool &Pool)
      : Inner(Inner), Pool(Pool) {}

  void fit(const FlatRows &X, const std::vector<double> &Y) override {
    Inner.fit(X, Y);
  }
  void update(RowRef X, double Y) override { Inner.update(X, Y); }
  Prediction predict(RowRef X) const override { return Inner.predict(X); }
  std::vector<double> almScores(const FlatRows &Candidates,
                                const ScoreContext &Ctx) const override {
    check(Candidates, Ctx.CandidateIds);
    return Inner.almScores(Candidates, stripped(Ctx));
  }
  std::vector<double> alcScores(const FlatRows &Candidates,
                                const FlatRows &Reference,
                                const ScoreContext &Ctx) const override {
    check(Candidates, Ctx.CandidateIds);
    check(Reference, Ctx.ReferenceIds);
    return Inner.alcScores(Candidates, Reference, stripped(Ctx));
  }
  size_t numObservations() const override { return Inner.numObservations(); }
  void setScheduler(Scheduler *Workers) override {
    Inner.setScheduler(Workers);
  }

  mutable size_t RowsChecked = 0;

private:
  void check(const FlatRows &Rows, const uint32_t *Ids) const {
    ASSERT_NE(Ids, nullptr);
    for (size_t I = 0; I != Rows.size(); ++I) {
      ASSERT_LT(Ids[I], Pool.size());
      RowRef Want = Pool.row(Ids[I]);
      ASSERT_TRUE(std::equal(Want.begin(), Want.end(), Rows[I].begin()))
          << "row " << I << " is not pool row " << Ids[I];
      ++RowsChecked;
    }
  }
  static ScoreContext stripped(const ScoreContext &Ctx) {
    ScoreContext Out = Ctx;
    Out.CandidateIds = nullptr;
    Out.ReferenceIds = nullptr;
    return Out;
  }

  SurrogateModel &Inner;
  const ConfigPool &Pool;
};

} // namespace

TEST(ActiveLearnerTest, CompletesAtNmax) {
  Fixture F;
  DynaTree M(F.modelConfig());
  ActiveLearner L(*F.B, M, F.D.Norm, F.D.TrainPool,
                  SamplingPlan::sequential(35), F.config(40));
  while (L.step()) {
  }
  EXPECT_TRUE(L.done());
  EXPECT_EQ(L.stats().Iterations, 40u);
}

TEST(ActiveLearnerTest, FixedPlanObservationAccounting) {
  Fixture F;
  DynaTree M(F.modelConfig());
  ActiveLearner L(*F.B, M, F.D.Norm, F.D.TrainPool, SamplingPlan::fixed(7),
                  F.config(20));
  while (L.step()) {
  }
  // 4 seeds x 10 obs + 20 iterations x 7 obs.
  EXPECT_EQ(L.stats().Observations, 4u * 10u + 20u * 7u);
  EXPECT_EQ(L.stats().Revisits, 0u);
  EXPECT_EQ(L.stats().DistinctExamples, 24u);
  EXPECT_EQ(L.profiler().ledger().Runs, L.stats().Observations);
}

TEST(ActiveLearnerTest, SequentialPlanTakesOneObservationPerIteration) {
  Fixture F;
  DynaTree M(F.modelConfig());
  ActiveLearner L(*F.B, M, F.D.Norm, F.D.TrainPool,
                  SamplingPlan::sequential(35), F.config(30));
  while (L.step()) {
  }
  EXPECT_EQ(L.stats().Observations, 4u * 10u + 30u);
  EXPECT_EQ(L.stats().DistinctExamples + L.stats().Revisits, 30u + 4u);
}

TEST(ActiveLearnerTest, SequentialNeverExceedsObservationCap) {
  Fixture F("correlation", 120); // noisy: revisits will happen
  DynaTree M(F.modelConfig());
  const unsigned Cap = 4;
  ActiveLearnerConfig Cfg = F.config(80);
  ActiveLearner L(*F.B, M, F.D.Norm, F.D.TrainPool,
                  SamplingPlan::sequential(Cap), Cfg);
  while (L.step()) {
  }
  // Seed examples receive InitObservations up front (they are never
  // revisited); every loop-selected example must respect the cap.
  size_t OverCap = 0;
  for (const Config &C : F.D.TrainPool.configs()) {
    unsigned N = L.profiler().observationCount(C);
    if (N > Cap) {
      EXPECT_EQ(N, Cfg.InitObservations) << F.B->space().toString(C);
      ++OverCap;
    }
  }
  EXPECT_LE(OverCap, size_t(Cfg.NumInitial));
}

TEST(ActiveLearnerTest, NoisyBenchmarkTriggersRevisits) {
  Fixture F("correlation", 300);
  DynaTree M(F.modelConfig());
  ActiveLearner L(*F.B, M, F.D.Norm, F.D.TrainPool,
                  SamplingPlan::sequential(35), F.config(80));
  while (L.step()) {
  }
  EXPECT_GT(L.stats().Revisits, 0u);
}

TEST(ActiveLearnerTest, CostIsMonotoneAcrossSteps) {
  Fixture F;
  DynaTree M(F.modelConfig());
  ActiveLearner L(*F.B, M, F.D.Norm, F.D.TrainPool,
                  SamplingPlan::sequential(35), F.config(25));
  double Last = 0.0;
  while (L.step()) {
    EXPECT_GE(L.cumulativeCostSeconds(), Last);
    Last = L.cumulativeCostSeconds();
  }
  EXPECT_GT(Last, 0.0);
}

TEST(ActiveLearnerTest, DeterministicGivenSeed) {
  Fixture F;
  DynaTree M1(F.modelConfig()), M2(F.modelConfig());
  ActiveLearner L1(*F.B, M1, F.D.Norm, F.D.TrainPool,
                   SamplingPlan::sequential(35), F.config(25));
  ActiveLearner L2(*F.B, M2, F.D.Norm, F.D.TrainPool,
                   SamplingPlan::sequential(35), F.config(25));
  while (L1.step()) {
  }
  while (L2.step()) {
  }
  EXPECT_EQ(L1.cumulativeCostSeconds(), L2.cumulativeCostSeconds());
  EXPECT_EQ(L1.stats().Revisits, L2.stats().Revisits);
}

TEST(ActiveLearnerTest, RandomScorerRuns) {
  Fixture F;
  DynaTree M(F.modelConfig());
  ActiveLearnerConfig C = F.config(20);
  C.Scorer = ScorerKind::Random;
  ActiveLearner L(*F.B, M, F.D.Norm, F.D.TrainPool,
                  SamplingPlan::sequential(35), C);
  while (L.step()) {
  }
  EXPECT_EQ(L.stats().Iterations, 20u);
}

TEST(ActiveLearnerTest, AlmScorerRuns) {
  Fixture F;
  DynaTree M(F.modelConfig());
  ActiveLearnerConfig C = F.config(20);
  C.Scorer = ScorerKind::Alm;
  ActiveLearner L(*F.B, M, F.D.Norm, F.D.TrainPool,
                  SamplingPlan::sequential(35), C);
  while (L.step()) {
  }
  EXPECT_EQ(L.stats().Iterations, 20u);
}

TEST(ActiveLearnerTest, BatchSelectionLabelsSeveralPerStep) {
  Fixture F;
  DynaTree M(F.modelConfig());
  ActiveLearnerConfig C = F.config(24);
  C.BatchSize = 4;
  ActiveLearner L(*F.B, M, F.D.Norm, F.D.TrainPool,
                  SamplingPlan::sequential(35), C);
  L.step(); // seed
  size_t StepsAfterSeed = 0;
  while (L.step())
    ++StepsAfterSeed;
  EXPECT_EQ(L.stats().Iterations, 24u);
  EXPECT_LE(StepsAfterSeed, 7u); // 24 / 4 = 6 full batches (+ remainder)
}

TEST(ActiveLearnerTest, ParallelAlcBitIdenticalToSequential) {
  // The whole loop — reference sampling, scoring, selection, measuring —
  // must replay identically whether candidate scoring runs sequentially
  // or sharded over a pool, at any thread count.
  Fixture F("correlation", 300);
  ActiveLearnerConfig Cfg = F.config(60);
  Cfg.CandidatesPerIteration = 100; // several shards per iteration

  auto runWith = [&](Scheduler *Pool) {
    DynaTree M(F.modelConfig());
    ActiveLearner L(*F.B, M, F.D.Norm, F.D.TrainPool,
                    SamplingPlan::sequential(35), Cfg, Pool);
    while (L.step()) {
    }
    return std::make_tuple(L.cumulativeCostSeconds(), L.stats().Revisits,
                           L.stats().DistinctExamples,
                           M.predict(F.D.TestFeatures[0]).Mean);
  };

  auto Sequential = runWith(nullptr);
  for (unsigned Threads : {1u, 4u}) {
    Scheduler Pool(Threads);
    EXPECT_EQ(runWith(&Pool), Sequential) << "thread count " << Threads;
  }
}

TEST(ActiveLearnerTest, ParallelAlcScoresBitIdenticalOnModel) {
  // Direct model-level check on the dynamic tree's sharded ALC.
  Fixture F("mvt", 300);
  DynaTree M(F.modelConfig());
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  for (size_t I = 0; I != 80; ++I) {
    X.push_back(F.D.TestFeatures[I % F.D.TestFeatures.size()].toVector());
    Y.push_back(double(I % 7));
  }
  M.fit(X, Y);
  std::vector<std::vector<double>> Cands(X.begin(), X.begin() + 70);
  std::vector<std::vector<double>> Ref(X.begin() + 10, X.begin() + 50);

  std::vector<double> Sequential = M.alcScores(Cands, Ref);
  Scheduler Pool(5);
  M.setScheduler(&Pool);
  ScoreContext Ctx;
  Ctx.ShardSize = 16;
  EXPECT_EQ(M.alcScores(Cands, Ref, Ctx), Sequential);
  M.setScheduler(nullptr);
}

TEST(ActiveLearnerTest, GpSurrogateLoopMatchesAcrossPools) {
  Fixture F("mvt", 200);
  GpConfig G;
  G.OptimizeHyperParams = false;
  G.Init.LengthScale = 0.8;
  G.Init.NoiseVariance = 1e-3;
  ActiveLearnerConfig Cfg = F.config(25);
  Cfg.CandidatesPerIteration = 64;

  auto runWith = [&](Scheduler *Pool) {
    GaussianProcess M(G);
    ActiveLearner L(*F.B, M, F.D.Norm, F.D.TrainPool,
                    SamplingPlan::sequential(35), Cfg, Pool);
    while (L.step()) {
    }
    return std::make_pair(L.cumulativeCostSeconds(),
                          M.predict(F.D.TestFeatures[0]).Mean);
  };

  Scheduler Pool(3);
  EXPECT_EQ(runWith(nullptr), runWith(&Pool));
}

TEST(ActiveLearnerTest, GpLoopWithPoolIdsMatchesLoopWithout) {
  // The learner hands the model the pool index of every scored row; a GP
  // that caches forward solves by those ids must pick exactly what a GP
  // that never sees them picks, under ALM and ALC, with or without a
  // scheduler.
  Fixture F("atax", 250);
  GpConfig G;
  G.OptimizeHyperParams = false;
  G.Init.LengthScale = 0.8;
  G.Init.NoiseVariance = 1e-3;
  for (ScorerKind Scorer : {ScorerKind::Alm, ScorerKind::Alc}) {
    ActiveLearnerConfig Cfg = F.config(40);
    Cfg.Scorer = Scorer;
    auto runWith = [&](bool Strip, Scheduler *Pool) {
      GaussianProcess M(G);
      IdCheckingModel Checked(M, F.D.TrainPool);
      SurrogateModel &Used = Strip ? static_cast<SurrogateModel &>(Checked)
                                   : M;
      ActiveLearner L(*F.B, Used, F.D.Norm, F.D.TrainPool,
                      SamplingPlan::sequential(35), Cfg, Pool);
      std::vector<Config> Picks;
      while (true) {
        const Suggestion &S = L.suggest();
        if (S.Phase == SuggestPhase::Done)
          break;
        Picks.insert(Picks.end(), S.Configs.begin(), S.Configs.end());
        std::vector<double> Costs(S.Configs.size() * S.ObservationsPerConfig);
        for (size_t I = 0; I != Costs.size(); ++I)
          Costs[I] = 1.0 + 0.01 * double((Picks.size() * 7 + I) % 13);
        EXPECT_TRUE(L.observe(S.Ticket, Costs));
      }
      if (Strip) {
        EXPECT_GT(Checked.RowsChecked, 0u);
      }
      return std::make_pair(Picks, M.predict(F.D.TestFeatures[0]).Variance);
    };
    auto Want = runWith(true, nullptr);
    EXPECT_EQ(runWith(false, nullptr), Want);
    Scheduler Pool(3);
    EXPECT_EQ(runWith(false, &Pool), Want);
  }
}

TEST(ActiveLearnerTest, ExplicitBatchStepLabelsAndChargesLedger) {
  Fixture F;
  DynaTree M(F.modelConfig());
  ActiveLearner L(*F.B, M, F.D.Norm, F.D.TrainPool,
                  SamplingPlan::sequential(35), F.config(40));
  L.step(); // seeding
  size_t SeedObs = L.stats().Observations;

  // An explicit batch labels exactly that many examples, one observation
  // each under the sequential plan, all charged to the ledger.
  ASSERT_TRUE(L.step(5u));
  EXPECT_EQ(L.stats().Iterations, 5u);
  EXPECT_EQ(L.stats().Observations, SeedObs + 5u);
  EXPECT_EQ(L.profiler().ledger().Runs, L.stats().Observations);

  ASSERT_TRUE(L.step(3u));
  EXPECT_EQ(L.stats().Iterations, 8u);
  EXPECT_EQ(L.profiler().ledger().Runs, L.stats().Observations);

  // The remaining budget caps the final batch at nmax.
  while (L.step(16u)) {
  }
  EXPECT_EQ(L.stats().Iterations, 40u);
  EXPECT_EQ(L.profiler().ledger().Runs, L.stats().Observations);
}

TEST(ActiveLearnerTest, PoolExhaustionTerminates) {
  Fixture F("mvt", 40); // pool of 30 training configs
  DynaTree M(F.modelConfig());
  ActiveLearner L(*F.B, M, F.D.Norm, F.D.TrainPool, SamplingPlan::fixed(1),
                  F.config(500));
  while (L.step()) {
  }
  EXPECT_TRUE(L.done());
  EXPECT_LT(L.stats().Iterations, 500u);
}

//===----------------------------------------------------------------------===//
// Query policies
//===----------------------------------------------------------------------===//

TEST(ActiveLearnerTest, AlwaysPolicyBitIdenticalToDefault) {
  // An explicit Always policy must leave the loop untouched: same RNG
  // stream, same picks, same model — the default config IS Always, so
  // this pins that the policy plumbing has no side channel.
  Fixture F;
  ActiveLearnerConfig Default = F.config(25);
  ActiveLearnerConfig Explicit = Default;
  Explicit.Query.Kind = QueryPolicyKind::Always;

  auto runWith = [&](const ActiveLearnerConfig &Cfg) {
    DynaTree M(F.modelConfig());
    ActiveLearner L(*F.B, M, F.D.Norm, F.D.TrainPool,
                    SamplingPlan::sequential(35), Cfg);
    while (L.step()) {
    }
    EXPECT_EQ(L.stats().Skips, 0u);
    return std::make_tuple(L.cumulativeCostSeconds(), L.stats().Observations,
                           L.stats().Revisits,
                           M.predict(F.D.TestFeatures[0]).Mean);
  };
  EXPECT_EQ(runWith(Default), runWith(Explicit));
}

TEST(ActiveLearnerTest, CostRangeSkipsDeterministicAcrossPools) {
  // Skip decisions are a pure function of the (deterministic) stream, so
  // sharded scoring at any worker count must reproduce them bitwise.
  Fixture F("correlation", 300);
  ActiveLearnerConfig Cfg = F.config(60);
  Cfg.CandidatesPerIteration = 100; // several shards per iteration
  Cfg.Query.Kind = QueryPolicyKind::CostRange;

  auto runWith = [&](Scheduler *Pool) {
    DynaTree M(F.modelConfig());
    ActiveLearner L(*F.B, M, F.D.Norm, F.D.TrainPool,
                    SamplingPlan::sequential(35), Cfg, Pool);
    while (L.step()) {
    }
    return std::make_tuple(L.stats().Skips, L.stats().Observations,
                           L.cumulativeCostSeconds(),
                           M.predict(F.D.TestFeatures[0]).Mean);
  };

  auto Sequential = runWith(nullptr);
  EXPECT_GT(std::get<0>(Sequential), 0u); // the policy actually skipped
  for (unsigned Threads : {1u, 8u}) {
    Scheduler Pool(Threads);
    EXPECT_EQ(runWith(&Pool), Sequential) << "thread count " << Threads;
  }
}

TEST(ActiveLearnerTest, SkipPhaseObservesEmptyCostsOnly) {
  // A policy that declines everything drives all-skip rounds: phase Skip,
  // zero observations per config, skipped configs reported.  The ticket
  // contract still holds — costs for skipped configs are rejected.
  Fixture F;
  ActiveLearnerConfig Cfg = F.config(10);
  Cfg.Query.Kind = QueryPolicyKind::AlmThreshold;
  Cfg.Query.AbsFloor = 1e30; // unreachable: every refine pick is a skip
  DynaTree M(F.modelConfig());
  ActiveLearner L(*F.B, M, F.D.Norm, F.D.TrainPool,
                  SamplingPlan::sequential(35), Cfg);

  const Suggestion &Seed = L.suggest();
  ASSERT_EQ(Seed.Phase, SuggestPhase::Explore);
  std::vector<double> SeedCosts(Seed.Configs.size() *
                                Seed.ObservationsPerConfig);
  ASSERT_TRUE(L.observe(Seed.Ticket, SeedCosts));
  size_t SeedObs = L.stats().Observations;

  const Suggestion &S = L.suggest();
  ASSERT_EQ(S.Phase, SuggestPhase::Skip);
  EXPECT_TRUE(S.Configs.empty());
  EXPECT_FALSE(S.Skipped.empty());
  EXPECT_EQ(S.ObservationsPerConfig, 0u);

  // Paying for a skipped config is a protocol violation.
  EXPECT_FALSE(L.observe(S.Ticket, {1.0}));
  EXPECT_TRUE(L.observe(S.Ticket, {}));

  while (L.step()) {
  }
  EXPECT_TRUE(L.done());
  EXPECT_EQ(L.stats().Skips, 10u);
  EXPECT_EQ(L.stats().Iterations, 10u);
  // Not a single refine label was bought.  (The split halves leave
  // measurement to the caller, so the internal ledger stays empty.)
  EXPECT_EQ(L.stats().Observations, SeedObs);
}

TEST(ActiveLearnerTest, CostRangePolicySavesLabelsKeepsTermination) {
  // The budget is measured in picks, not labels: a skipping run consumes
  // the same iteration budget while buying strictly fewer observations.
  Fixture F("correlation", 300);
  ActiveLearnerConfig Plain = F.config(40);
  ActiveLearnerConfig Skipping = Plain;
  Skipping.Query.Kind = QueryPolicyKind::CostRange;
  // Aggressive constants: the defaults' regret budget is still loose at
  // this fixture's short stream, and this test is about accounting.
  Skipping.Query.Mellowness = 0.001;
  Skipping.Query.RangeC1 = 0.1;

  auto runWith = [&](const ActiveLearnerConfig &Cfg) {
    DynaTree M(F.modelConfig());
    ActiveLearner L(*F.B, M, F.D.Norm, F.D.TrainPool,
                    SamplingPlan::sequential(35), Cfg);
    while (L.step()) {
    }
    EXPECT_TRUE(L.done());
    EXPECT_EQ(L.stats().Iterations, 40u);
    return std::make_pair(L.stats().Observations, L.stats().Skips);
  };

  auto [PlainObs, PlainSkips] = runWith(Plain);
  auto [SkipObs, Skips] = runWith(Skipping);
  EXPECT_EQ(PlainSkips, 0u);
  EXPECT_GT(Skips, 0u);
  EXPECT_EQ(SkipObs, PlainObs - Skips);
}
