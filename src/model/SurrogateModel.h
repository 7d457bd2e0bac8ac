//===- model/SurrogateModel.h - Regression-surrogate interface -*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interface the active learner drives.  A surrogate maps feature
/// vectors (normalized configurations) to a predictive mean and variance,
/// supports cheap incremental updates (the dynamic tree's raison d'être),
/// and scores candidate points by expected information gain:
///
///  * ALM (MacKay [34]): the candidate's own predictive variance;
///  * ALC (Cohn [13]):   the expected reduction in average predictive
///                       variance over a reference set.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_MODEL_SURROGATEMODEL_H
#define ALIC_MODEL_SURROGATEMODEL_H

#include "support/FlatRows.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace alic {

class Scheduler;

/// Predictive distribution summary at one point.
struct Prediction {
  double Mean = 0.0;     ///< predicted runtime (seconds)
  double Variance = 0.0; ///< predictive variance around the mean
};

/// Optional instrumentation sink for the scoring hot path.  Ensemble
/// models that deduplicate work across members (DynaTree walks a row once
/// per tree lineage: members whose trees share every split land it in
/// the same node) record here both the terms a naive per-member
/// evaluation would accumulate and the leaf walks actually performed;
/// their ratio is the dedup factor benches and tests report.  The exact
/// GP records the kernel evaluations and forward-solve terms its scoring
/// performs, computed once per call.  Counters are cumulative across
/// calls and thread-safe (relaxed atomics — purely observational, so
/// results never depend on them).
struct ScoreStats {
  /// Candidates scored (alm + alc calls).
  std::atomic<uint64_t> CandidatesScored{0};
  /// Per-(candidate, ensemble-member) terms accumulated into scores —
  /// the work a naive per-member path performs.
  std::atomic<uint64_t> ParticleTerms{0};
  /// findLeaf walks actually done: DynaTree walks every scored row
  /// (candidates, and ALC's reference rows) once per tree lineage, so
  /// this is lineages x rows.
  std::atomic<uint64_t> UniqueLeafWalks{0};
  /// Kernel evaluations against training rows that fill forward-solve
  /// right-hand sides (the GP's k(x, x_i)).  A cached solve that already
  /// covers the factor costs none; ALC's candidate-reference kernels
  /// k(r, x) are fixed by the call's shape and not counted.
  std::atomic<uint64_t> KernelEvals{0};
  /// Forward-substitution multiply-adds (the GP's v = L^-1 k solves):
  /// solving rows [S, n) of a right-hand side costs sum_{i=S}^{n-1} i.
  std::atomic<uint64_t> SolveTerms{0};

  /// Naive-terms / walks-performed ratio (1.0 when nothing was saved).
  double dedupFactor() const {
    uint64_t Walks = UniqueLeafWalks.load(std::memory_order_relaxed);
    uint64_t Terms = ParticleTerms.load(std::memory_order_relaxed);
    return Walks == 0 ? 1.0 : double(Terms) / double(Walks);
  }
};

/// Context for batched candidate scoring.  The active learner scores a
/// 500-candidate pool against a 100-point reference set every iteration.
/// Models shard that work with shardedFor on the scheduler setScheduler()
/// installed (none means score sequentially), the one channel their
/// updates and predictBatch() use too, and stay bit-identical to the
/// sequential path: shards are cut on a grid that depends only on the
/// candidate count and ShardSize (never the worker count), and each
/// shard writes disjoint outputs.  Scoring may itself run inside a
/// scheduler task (a campaign cell): the shards then fork onto the same
/// pool, and idle workers steal them.
struct ScoreContext {
  /// Candidates per shard.  Fixed by the caller, not derived from the
  /// thread count, so the shard grid is reproducible everywhere.
  size_t ShardSize = 32;

  /// Optional counter sink for score-path instrumentation (dedup
  /// factors, kernel evaluations, solve terms); null means don't count.
  /// Never affects results.
  ScoreStats *Stats = nullptr;

  /// Pool identities of the candidate rows, one per row; null means the
  /// rows have no identity.  Ids index one fixed pool for the model's
  /// lifetime: rows that carry the same id, in any call, hold the same
  /// features.  A model may key per-point caches by id — the exact GP
  /// keeps each pool point's forward solve and extends it as its factor
  /// grows — but scores are bitwise the same with or without ids.
  const uint32_t *CandidateIds = nullptr;
  /// Pool identities of the reference rows (ALC), under the same
  /// contract; an id may also appear among the candidates.
  const uint32_t *ReferenceIds = nullptr;
};

/// Interface of all runtime-prediction surrogates.
///
/// Training data, candidate batches, and reference sets travel as
/// FlatRows — one contiguous row-major buffer — so models never
/// re-materialize per-row vectors in their hot loops.  Plain
/// std::vector<std::vector<double>> and braced literals convert
/// implicitly at call sites.
class SurrogateModel {
public:
  virtual ~SurrogateModel(); ///< out-of-line anchor for the vtable

  /// Resets the model and trains on a batch.
  virtual void fit(const FlatRows &X, const std::vector<double> &Y) = 0;

  /// Incorporates one observation.
  virtual void update(RowRef X, double Y) = 0;

  /// Predictive mean and variance at \p X.
  virtual Prediction predict(RowRef X) const = 0;

  /// Batched predictions: fills Out[0..Count) with the predictions of
  /// the first \p Count rows of \p X (\p Count <= X.size()).  Must be
  /// bit-identical to \p Count predict() calls; models may batch the
  /// internal work (the GP streams its triangular-solve factor rows
  /// through the whole block).  The default loops over predict().
  virtual void predictBatch(const FlatRows &X, size_t Count,
                            Prediction *Out) const;

  /// ALM scores: predictive variance per candidate (higher = more useful).
  /// Implementations must honor \p Ctx as alcScores() does.
  virtual std::vector<double>
  almScores(const FlatRows &Candidates,
            const ScoreContext &Ctx = ScoreContext()) const = 0;

  /// ALC scores: expected reduction of summed predictive variance over
  /// \p Reference if the candidate were observed (higher = more useful).
  /// Implementations must honor \p Ctx: scored in parallel on the
  /// installed scheduler, the result must be bit-identical to the
  /// sequential run.
  virtual std::vector<double>
  alcScores(const FlatRows &Candidates, const FlatRows &Reference,
            const ScoreContext &Ctx = ScoreContext()) const = 0;

  /// Number of observations absorbed so far.
  virtual size_t numObservations() const = 0;

  /// Installs (or removes, with nullptr) the scheduler models may use to
  /// parallelize their work — e.g. the dynamic tree shards its
  /// per-particle SMC update, and the models shard candidate scoring on
  /// it.  Nesting is legal: when the model already runs inside a
  /// scheduler task, its inner shards fork onto the same pool.
  /// Implementations must keep results bit-identical at any worker
  /// count, including none.
  virtual void setScheduler(Scheduler *Workers) { (void)Workers; }
};

} // namespace alic

#endif // ALIC_MODEL_SURROGATEMODEL_H
