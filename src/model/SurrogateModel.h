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
/// models that deduplicate work across identical members (DynaTree's
/// unique-particle runs: post-resample aliases share one tree and one
/// pending list, so their per-candidate contributions are equal) record
/// here both the terms a naive per-member evaluation would accumulate
/// and the leaf walks actually performed; their ratio is the dedup
/// factor benches and tests report.  Counters are cumulative across
/// calls and thread-safe (relaxed atomics — purely observational, so
/// results never depend on them).
struct ScoreStats {
  /// Candidates scored (alm + alc calls).
  std::atomic<uint64_t> CandidatesScored{0};
  /// Per-(candidate, ensemble-member) terms accumulated into scores —
  /// the work a naive per-member path performs.
  std::atomic<uint64_t> ParticleTerms{0};
  /// findLeaf + leaf-posterior evaluations actually executed.
  std::atomic<uint64_t> UniqueLeafWalks{0};

  /// Naive-terms / walks-performed ratio (1.0 when nothing was saved).
  double dedupFactor() const {
    uint64_t Walks = UniqueLeafWalks.load(std::memory_order_relaxed);
    uint64_t Terms = ParticleTerms.load(std::memory_order_relaxed);
    return Walks == 0 ? 1.0 : double(Terms) / double(Walks);
  }
};

/// Execution context for batched candidate scoring.  The active learner
/// scores a 500-candidate pool against a 100-point reference set every
/// iteration; this context lets models shard that work across the
/// work-stealing scheduler while staying bit-identical to the sequential
/// path: shards are cut on a grid that depends only on the candidate
/// count (never the worker count), and each shard writes disjoint
/// outputs.  Scoring may itself run inside a scheduler task (a campaign
/// cell): the shards then fork onto the same pool, and idle workers
/// steal them.
struct ScoreContext {
  /// Scheduler to shard the scoring over; null means score sequentially.
  Scheduler *Pool = nullptr;

  /// Candidates per shard.  Fixed by the caller, not derived from the
  /// thread count, so the shard grid is reproducible everywhere.
  size_t ShardSize = 32;

  /// Optional counter sink for score-path instrumentation (dedup
  /// factors); null means don't count.  Never affects results.
  ScoreStats *Stats = nullptr;
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
  /// The default implementation shards predict() over \p Ctx.
  virtual std::vector<double>
  almScores(const FlatRows &Candidates,
            const ScoreContext &Ctx = ScoreContext()) const;

  /// ALC scores: expected reduction of summed predictive variance over
  /// \p Reference if the candidate were observed (higher = more useful).
  /// Implementations must honor \p Ctx: scored in parallel over its pool,
  /// the result must be bit-identical to the sequential run.
  virtual std::vector<double>
  alcScores(const FlatRows &Candidates, const FlatRows &Reference,
            const ScoreContext &Ctx = ScoreContext()) const = 0;

  /// Number of observations absorbed so far.
  virtual size_t numObservations() const = 0;

  /// Installs (or removes, with nullptr) the scheduler models may use to
  /// parallelize their *internal* work — e.g. the dynamic tree shards its
  /// per-particle SMC update.  Nesting is legal: when the model already
  /// runs inside a scheduler task, its inner shards fork onto the same
  /// pool.  Implementations must keep results bit-identical at any
  /// worker count, including none.
  virtual void setScheduler(Scheduler *Workers) { (void)Workers; }
};

} // namespace alic

#endif // ALIC_MODEL_SURROGATEMODEL_H
