//===- gp/GaussianProcess.h - Exact GP regression --------------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Gaussian-process regression with a squared-exponential (RBF) kernel.
/// Section 3.2 of the paper: "the collective wisdom would be to use a
/// Gaussian Process ... however, GP inference is slow with O(n^3)
/// efficiency".  This implementation exists to reproduce that comparison
/// (bench_ablation_model_cost) and as an alternative surrogate for the
/// active learner.
///
/// Inference is exact: full n x n Cholesky inference over the packed
/// triangular factor (linalg/Cholesky.h).  update() grows the factor by
/// one bordered row (Cholesky::extend, O(n^2) per observation and
/// amortized O(n) copies) and re-solves for the weights, which is
/// numerically identical to a from-scratch O(n^3) refit because the
/// extension reproduces factorize()'s arithmetic bit-for-bit.  The full
/// refit — the cost the paper's Section 3.2 attributes to GPs — is still
/// what fit() and its hyperparameter search pay; bench_ablation_model_cost
/// times fit() against update().  ALM and ALC score in forward-solve
/// form: v = L^-1 k by batched forward substitution, then
/// var(x) = s - v_x.v_x and cov(r, x) = k(r, x) - v_r.v_x, with no back
/// substitution.
///
/// Scoring keeps the forward solves of pool points.  When a call carries
/// pool ids (ScoreContext::CandidateIds / ReferenceIds, filled by the
/// active learner) the model keeps, per id, v and the running sums
/// 0 + v.v and s - v.v, valid for the factor's first |v| rows.
/// Row i of a forward solve reads only rows < i of L, and extend() only
/// appends rows, so a touched point is extended by the rows added since
/// its last use — (gap) kernel evaluations and O(gap n) multiply-adds
/// instead of n and O(n^2) — and every score is bitwise the one a
/// from-scratch solve gives.  refitWith() (fit(), the hyperparameter
/// search, update()'s fallback) bumps a generation that voids
/// every entry.  A call without ids runs the same code over entries that
/// start empty.  The cache holds at most |pool| x n doubles, plus growth
/// headroom of max(n/8, 32) per point: 0.23 MB at smoke scale, 6 MB at
/// bench, 150 MB at paper.  Scoring with ids writes the cache, so one model
/// must not be scored from two threads at once (its learner never does).
///
/// Candidate batches go through the blocked multi-RHS triangular solve,
/// so the factor rows stream from cache once per shard instead of once
/// per candidate, and each shard writes only its own entries.  Scoring
/// results remain bit-identical to the sequential per-candidate path at
/// any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_GP_GAUSSIANPROCESS_H
#define ALIC_GP_GAUSSIANPROCESS_H

#include "linalg/Cholesky.h"
#include "model/SurrogateModel.h"

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <vector>

namespace alic {

/// Hyperparameters of the RBF kernel.
struct GpHyperParams {
  double SignalVariance = 1.0;  ///< sigma_f^2
  double LengthScale = 1.0;     ///< shared across dimensions
  double NoiseVariance = 0.01;  ///< sigma_n^2 (nugget)
};

/// Configuration of the GP surrogate.
struct GpConfig {
  GpHyperParams Init;
  /// If true, fit() runs a random search over hyperparameters maximizing
  /// the log marginal likelihood.
  bool OptimizeHyperParams = true;
  unsigned OptimizerRestarts = 24;
  uint64_t Seed = 23;
};

/// Exact GP regression surrogate.
class GaussianProcess : public SurrogateModel {
public:
  explicit GaussianProcess(GpConfig Config = GpConfig());

  void fit(const FlatRows &X, const std::vector<double> &Y) override;
  void update(RowRef X, double Y) override;
  Prediction predict(RowRef X) const override;
  void predictBatch(const FlatRows &X, size_t Count,
                    Prediction *Out) const override;
  std::vector<double> almScores(const FlatRows &Candidates,
                                const ScoreContext &Ctx = ScoreContext())
      const override;
  std::vector<double> alcScores(const FlatRows &Candidates,
                                const FlatRows &Reference,
                                const ScoreContext &Ctx = ScoreContext())
      const override;
  size_t numObservations() const override { return DataX.size(); }

  /// Blocked factorization: refits fork panel trailing updates (and the
  /// kernel-matrix fill) onto \p W, and scoring shards its solves and
  /// candidates on it; results are bit-identical at any worker count
  /// (see linalg/Cholesky.h).
  void setScheduler(Scheduler *W) override { Workers = W; }

  /// Log marginal likelihood of the current fit.
  double logMarginalLikelihood() const { return LogMl; }

  const GpHyperParams &hyperParams() const { return Params; }

private:
  /// The back-substitution ALC in tests/gp_test.cpp, which the
  /// forward-solve alcScores() must match to rounding.
  friend class GpBackSubstitutionReference;

  /// One row's forward solve v = L^-1 k(x, data) over the factor's
  /// first Len rows, valid while Gen equals FactorGen.
  struct SolvedRow {
    std::vector<double> V; ///< V[0..Len) solved; the rest is headroom
    size_t Len = 0;
    double SumSq = 0.0;   ///< 0 + V[0]^2 + ... + V[Len-1]^2 in index order
    double VarLeft = 0.0; ///< s - V[0]^2 - ... - V[Len-1]^2 in index order
    uint64_t Gen = 0;
  };
  /// Rows to score and their pool ids (null: no identity).
  struct RowBlock {
    const FlatRows &Rows;
    const uint32_t *Ids;
  };

  double kernel(RowRef A, RowRef B) const;
  /// Fills Out[I] with kernel(X, Rows[I]) for I in [Begin, End) — the
  /// one kernel-row loop every batched path shares.
  void kernelRow(const FlatRows &Rows, RowRef X, double *Out, size_t Begin,
                 size_t End) const;
  /// Brings the forward solve of every row of \p Blocks up to the
  /// current factor and returns one entry per row, block after block.
  /// Rows with ids use the cache (an id seen twice is extended once);
  /// rows without use entries of \p Scratch, which start empty.
  std::vector<const SolvedRow *>
  solveRows(std::initializer_list<RowBlock> Blocks, const ScoreContext &Ctx,
            std::vector<SolvedRow> &Scratch) const;
  /// Refactorizes the kernel matrix of the stored data under \p P
  /// (O(n^3)) and returns the log marginal likelihood, or -1e300 when
  /// the kernel matrix is not positive definite.
  double refitWith(const GpHyperParams &P);
  /// Recomputes the data mean, weights, and log marginal likelihood from
  /// the current factor (O(n^2)); shared by the refit and incremental
  /// update paths so both produce identical state.
  double recomputeWeights();
  /// Extends the factorization by the newest data point (O(n^2)).
  void updateIncremental();

  GpConfig Config;
  GpHyperParams Params;
  FlatRows DataX; ///< contiguous row-major training rows (SoA layout)
  std::vector<double> DataY;
  double MeanY = 0.0;
  Scheduler *Workers = nullptr;
  std::optional<Cholesky> Factor;
  std::vector<double> Alpha; ///< K^-1 (y - mean)
  double LogMl = 0.0;
  /// Reused update()-path scratch (the border row); the const
  /// prediction/scoring paths use thread-local scratch instead.
  std::vector<double> UpdateScratch;
  /// Bumped by every refitWith(): a new factor voids every SolvedRow.
  uint64_t FactorGen = 0;
  /// Forward solves by pool id (see the file comment).
  mutable std::vector<SolvedRow> Solved;
};

} // namespace alic

#endif // ALIC_GP_GAUSSIANPROCESS_H
