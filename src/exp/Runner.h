//===- exp/Runner.h - Learning-curve experiment runner --------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives ActiveLearner over a Dataset and records the evolution of the
/// test-set RMSE (equation (1) of the paper) against cumulative virtual
/// profiling cost — the curves of Figure 6 — plus the lowest-common-error
/// speedup analysis behind Table 1 and Figure 5.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_EXP_RUNNER_H
#define ALIC_EXP_RUNNER_H

#include "core/ActiveLearner.h"
#include "exp/Dataset.h"
#include "exp/Scale.h"
#include "support/TokenTable.h"

#include <memory>
#include <string>
#include <vector>

namespace alic {

/// Which surrogate drives the learner.
enum class ModelKind {
  DynaTree, ///< the paper's dynamic-tree particle filter
  Gp,       ///< exact incremental Gaussian process comparator
};

/// Every ModelKind and its token.  Printing and parsing both read this
/// table, so adding a model means adding one row.
inline constexpr TokenRow<ModelKind> ModelTokens[] = {
    {ModelKind::DynaTree, "dynatree"},
    {ModelKind::Gp, "gp"}};

/// Every ScorerKind and its token (see ModelTokens).
inline constexpr TokenRow<ScorerKind> ScorerTokens[] = {
    {ScorerKind::Alc, "alc"},
    {ScorerKind::Alm, "alm"},
    {ScorerKind::Random, "random"}};

/// Every sampling-plan family and the token that prefixes its count in a
/// plan token ("fixed:35", "seq:35").
inline constexpr TokenRow<SamplingPlan::Kind> PlanTokens[] = {
    {SamplingPlan::Kind::Fixed, "fixed"},
    {SamplingPlan::Kind::Sequential, "seq"}};

/// The model's token from ModelTokens.
const char *modelToken(ModelKind Kind);
/// The scorer's token from ScorerTokens.
const char *scorerToken(ScorerKind Kind);
/// The plan's token: its PlanTokens prefix, ':', and its count.
std::string planToken(const SamplingPlan &Plan);
/// Parses a planToken: a PlanTokens prefix, ':', and a positive 32-bit
/// decimal count with nothing after it.  False (\p Out unchanged)
/// otherwise.
bool parsePlanToken(const std::string &Text, SamplingPlan &Out);

/// Builds an unfitted surrogate of \p Kind sized by \p S (DynaTree
/// particle count) and seeded deterministically from \p Seed — the one
/// model-construction path shared by runLearning, the campaign
/// orchestrator, and serve sessions, so a session and a batch run with
/// the same (kind, scale, seed) hold bit-identical models.  The caller
/// owns the result.
std::unique_ptr<SurrogateModel> makeSurrogateModel(ModelKind Kind,
                                                   const ExperimentScale &S,
                                                   uint64_t Seed);

/// Test-set RMSE (equation (1) of the paper) of \p Model's mean
/// predictions over the first \p NumEval held-out points of \p D
/// (0 < \p NumEval <= D.TestFeatures.size()) — the one evaluation behind
/// every learning-curve point and the serve `eval` op.  Predicts in one
/// batch, bit-identical to per-point predict().
double testSetRmse(const SurrogateModel &Model, const Dataset &D,
                   size_t NumEval);

/// One point of a learning curve.
struct CurvePoint {
  size_t Iteration = 0;    ///< learner iteration the point was taken at
  double CostSeconds = 0.0; ///< cumulative virtual profiling cost so far
  double Rmse = 0.0;        ///< test-set RMSE at that cost
};

/// A (possibly seed-averaged) learning curve.
struct RunResult {
  std::vector<CurvePoint> Curve; ///< RMSE-vs-cost samples, cost-ascending
  LearnerStats Stats;            ///< final learner counters
  double FinalRmse = 0.0;        ///< RMSE after the last iteration
  double TotalCostSeconds = 0.0; ///< total virtual profiling cost charged
};

/// Everything a learning run needs beyond the benchmark, dataset, plan,
/// and scale: the single options struct experiment drivers (benches, the
/// campaign orchestrator) pass around.
struct RunOptions {
  /// Learner policy knobs — scorer and batch size live here and nowhere
  /// else.  The scale-derived size fields (ninit, nmax, nc, ...) and the
  /// per-run seed are filled in by runLearning via ExperimentScale::
  /// applyTo, so no caller copies them by hand.
  ActiveLearnerConfig Learner;
  ModelKind Model = ModelKind::DynaTree;
  /// Multiplies every drawn measurement's noise (future-work experiment);
  /// 1.0 = the benchmark's calibrated noise.
  double NoiseScale = 1.0;
  /// Installed on the model, which shards candidate scoring and its
  /// updates across it when non-null; curves are bit-identical
  /// with or without it.  The run may itself execute inside a task of
  /// the same scheduler (nested parallelism — the campaign path).
  Scheduler *Workers = nullptr;
};

/// Runs one learning experiment (single seed).
RunResult runLearning(const SpaptBenchmark &B, const Dataset &D,
                      SamplingPlan Plan, const ExperimentScale &S,
                      uint64_t Seed, const RunOptions &Options = RunOptions());

/// Runs \p S.Repetitions seeds and averages the curves pointwise.
RunResult runAveraged(const SpaptBenchmark &B, const Dataset &D,
                      SamplingPlan Plan, const ExperimentScale &S,
                      uint64_t BaseSeed,
                      const RunOptions &Options = RunOptions());

/// Pointwise average of single-seed runs sharing one iteration grid
/// (curves clip to the shortest run; counters average integrally) — the
/// aggregation step of runAveraged, exposed so the campaign orchestrator
/// reproduces it exactly from checkpointed per-seed cells.
RunResult averageRuns(const std::vector<RunResult> &Runs);

/// Lowest-common-error comparison of two curves (Table 1 semantics): the
/// error level is the worst of the two curves' best errors, and each cost
/// is the first cumulative cost at which the curve reaches that level.
struct PlanComparison {
  double LowestCommonRmse = 0.0;     ///< worst of the two curves' best RMSEs
  double BaselineCostSeconds = 0.0;  ///< baseline's cost to reach that level
  double OursCostSeconds = 0.0;      ///< our plan's cost to reach it
  double Speedup = 0.0;              ///< baseline cost / our cost
};

/// Compares two curves at their lowest common error (see PlanComparison).
PlanComparison compareCurves(const RunResult &Baseline, const RunResult &Ours);

} // namespace alic

#endif // ALIC_EXP_RUNNER_H
