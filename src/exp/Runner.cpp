//===- exp/Runner.cpp -----------------------------------------*- C++ -*-===//

#include "exp/Runner.h"

#include "dynatree/DynaTree.h"
#include "gp/GaussianProcess.h"
#include "stats/Metrics.h"
#include "support/Error.h"
#include "support/Parse.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace alic;

namespace {

/// Oracle adapter that scales the benchmark's noise (the paper's
/// future-work experiment: "artificially introducing noise into the
/// system to see how robustly it performs in extreme cases").
class ScaledNoiseOracle : public WorkloadOracle {
public:
  ScaledNoiseOracle(const SpaptBenchmark &B, double NoiseScale)
      : B(B), Noise(B.noise()) {
    Noise.BaseRelSigma *= NoiseScale;
    Noise.BurstMeanRel *= NoiseScale;
  }

  const ParamSpace &space() const override { return B.space(); }
  double meanRuntimeSeconds(const Config &C) const override {
    return B.meanRuntimeSeconds(C);
  }
  double compileSeconds(const Config &C) const override {
    return B.compileSeconds(C);
  }
  const NoiseProfile &noise() const override { return Noise; }

private:
  const SpaptBenchmark &B;
  NoiseProfile Noise;
};

} // namespace

const char *alic::modelToken(ModelKind Kind) {
  if (const char *Token = tokenOf(ModelTokens, Kind))
    return Token;
  alic_unreachable("unknown model kind");
}

const char *alic::scorerToken(ScorerKind Kind) {
  if (const char *Token = tokenOf(ScorerTokens, Kind))
    return Token;
  alic_unreachable("unknown scorer kind");
}

std::string alic::planToken(const SamplingPlan &Plan) {
  const char *Family = tokenOf(PlanTokens, Plan.PlanKind);
  if (!Family)
    alic_unreachable("unknown plan kind");
  unsigned Count = Plan.PlanKind == SamplingPlan::Kind::Fixed
                       ? Plan.FixedObservations
                       : Plan.MaxObservationsPerExample;
  return std::string(Family) + ":" + std::to_string(Count);
}

bool alic::parsePlanToken(const std::string &Text, SamplingPlan &Out) {
  size_t Colon = Text.find(':');
  SamplingPlan::Kind Kind;
  uint64_t Count = 0;
  if (Colon == std::string::npos ||
      !parseToken(PlanTokens, Text.substr(0, Colon), Kind) ||
      !parseCount(Text.substr(Colon + 1), std::numeric_limits<unsigned>::max(),
                  Count) ||
      Count == 0)
    return false;
  Out = Kind == SamplingPlan::Kind::Fixed
            ? SamplingPlan::fixed(unsigned(Count))
            : SamplingPlan::sequential(unsigned(Count));
  return true;
}

std::unique_ptr<SurrogateModel>
alic::makeSurrogateModel(ModelKind Kind, const ExperimentScale &S,
                         uint64_t Seed) {
  if (Kind == ModelKind::Gp) {
    GpConfig G;
    G.Seed = hashCombine({Seed, 0x6770ull});
    return std::make_unique<GaussianProcess>(G);
  }
  DynaTreeConfig C;
  C.NumParticles = S.Particles;
  C.Seed = hashCombine({Seed, 0xd7ull});
  return std::make_unique<DynaTree>(C);
}

double alic::testSetRmse(const SurrogateModel &Model, const Dataset &D,
                         size_t NumEval) {
  // Batched so the GP streams its factor rows once per block instead of
  // once per test point.
  std::vector<Prediction> Preds(NumEval);
  Model.predictBatch(D.TestFeatures, NumEval, Preds.data());
  std::vector<double> Pred(NumEval), Actual(NumEval);
  for (size_t I = 0; I != NumEval; ++I) {
    Pred[I] = Preds[I].Mean;
    Actual[I] = D.TestMeans[I];
  }
  return rootMeanSquaredError(Pred, Actual);
}

RunResult alic::runLearning(const SpaptBenchmark &B, const Dataset &D,
                            SamplingPlan Plan, const ExperimentScale &S,
                            uint64_t Seed, const RunOptions &Options) {
  ScaledNoiseOracle Oracle(B, Options.NoiseScale);
  std::unique_ptr<SurrogateModel> Model =
      makeSurrogateModel(Options.Model, S, Seed);

  ActiveLearnerConfig Cfg = Options.Learner;
  S.applyTo(Cfg);
  Cfg.Seed = Seed;

  ActiveLearner Learner(Oracle, *Model, D.Norm, D.TrainPool, Plan, Cfg,
                        Options.Workers);

  // Fixed evaluation subset, identical across plans and seeds.
  size_t NumEval = std::min(S.TestSubset, D.TestFeatures.size());
  assert(NumEval > 0 && "empty test subset");

  auto evalRmse = [&] { return testSetRmse(*Model, D, NumEval); };

  RunResult Result;
  Learner.step(); // seeding phase
  Result.Curve.push_back(
      {0, Learner.cumulativeCostSeconds(), evalRmse()});

  while (Learner.step()) {
    size_t Iter = Learner.stats().Iterations;
    if (Iter % S.EvalEvery == 0 || Learner.done())
      Result.Curve.push_back(
          {Iter, Learner.cumulativeCostSeconds(), evalRmse()});
  }
  if (Result.Curve.back().Iteration != Learner.stats().Iterations)
    Result.Curve.push_back({Learner.stats().Iterations,
                            Learner.cumulativeCostSeconds(), evalRmse()});

  Result.Stats = Learner.stats();
  Result.FinalRmse = Result.Curve.back().Rmse;
  Result.TotalCostSeconds = Learner.cumulativeCostSeconds();
  return Result;
}

RunResult alic::runAveraged(const SpaptBenchmark &B, const Dataset &D,
                            SamplingPlan Plan, const ExperimentScale &S,
                            uint64_t BaseSeed, const RunOptions &Options) {
  assert(S.Repetitions >= 1 && "need at least one repetition");
  std::vector<RunResult> Runs;
  Runs.reserve(S.Repetitions);
  for (unsigned Rep = 0; Rep != S.Repetitions; ++Rep)
    Runs.push_back(runLearning(B, D, Plan, S,
                               hashCombine({BaseSeed, uint64_t(Rep)}),
                               Options));
  return averageRuns(Runs);
}

RunResult alic::averageRuns(const std::vector<RunResult> &Runs) {
  assert(!Runs.empty() && "need at least one run");
  // Average pointwise; runs share the iteration grid, so clip to the
  // shortest curve (pool exhaustion can shorten a run).
  size_t MinLen = Runs.front().Curve.size();
  for (const RunResult &R : Runs)
    MinLen = std::min(MinLen, R.Curve.size());

  RunResult Avg;
  Avg.Curve.resize(MinLen);
  for (size_t P = 0; P != MinLen; ++P) {
    CurvePoint &Out = Avg.Curve[P];
    Out.Iteration = Runs.front().Curve[P].Iteration;
    for (const RunResult &R : Runs) {
      Out.CostSeconds += R.Curve[P].CostSeconds;
      Out.Rmse += R.Curve[P].Rmse;
    }
    Out.CostSeconds /= double(Runs.size());
    Out.Rmse /= double(Runs.size());
  }
  for (const RunResult &R : Runs) {
    Avg.Stats.Iterations += R.Stats.Iterations;
    Avg.Stats.DistinctExamples += R.Stats.DistinctExamples;
    Avg.Stats.Revisits += R.Stats.Revisits;
    Avg.Stats.Observations += R.Stats.Observations;
    Avg.Stats.Skips += R.Stats.Skips;
    Avg.FinalRmse += R.FinalRmse;
    Avg.TotalCostSeconds += R.TotalCostSeconds;
  }
  size_t N = Runs.size();
  Avg.Stats.Iterations /= N;
  Avg.Stats.DistinctExamples /= N;
  Avg.Stats.Revisits /= N;
  Avg.Stats.Observations /= N;
  Avg.Stats.Skips /= N;
  Avg.FinalRmse /= double(N);
  Avg.TotalCostSeconds /= double(N);
  return Avg;
}

PlanComparison alic::compareCurves(const RunResult &Baseline,
                                   const RunResult &Ours) {
  auto minRmse = [](const RunResult &R) {
    double Min = R.Curve.front().Rmse;
    for (const CurvePoint &P : R.Curve)
      Min = std::min(Min, P.Rmse);
    return Min;
  };
  PlanComparison Cmp;
  Cmp.LowestCommonRmse = std::max(minRmse(Baseline), minRmse(Ours));
  const double Eps = 1e-12;
  auto firstCostReaching = [&](const RunResult &R) {
    for (const CurvePoint &P : R.Curve)
      if (P.Rmse <= Cmp.LowestCommonRmse + Eps)
        return P.CostSeconds;
    return R.Curve.back().CostSeconds;
  };
  Cmp.BaselineCostSeconds = firstCostReaching(Baseline);
  Cmp.OursCostSeconds = firstCostReaching(Ours);
  Cmp.Speedup = Cmp.OursCostSeconds > 0.0
                    ? Cmp.BaselineCostSeconds / Cmp.OursCostSeconds
                    : 0.0;
  return Cmp;
}
