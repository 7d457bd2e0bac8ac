//===- gp/GaussianProcess.cpp ---------------------------------*- C++ -*-===//

#include "gp/GaussianProcess.h"

#include "support/Error.h"
#include "support/Rng.h"
#include "support/Scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace alic;

namespace {

/// Rows per shard of the kernel-matrix fill: fixed (never derived from
/// the worker count) so the shard grid is reproducible everywhere; row
/// cost is uneven (row I costs I kernel evaluations) but the stealing
/// scheduler balances that.
constexpr size_t KernelFillShard = 32;

/// Candidates per block of the serial predictBatch() path — enough to
/// amortize the factor-row streaming of the multi-RHS solves while the
/// block's kernel rows stay cache-resident.
constexpr size_t PredictBlock = 64;

} // namespace

GaussianProcess::GaussianProcess(GpConfig Config)
    : Config(Config), Params(Config.Init) {}

double GaussianProcess::kernel(RowRef A, RowRef B) const {
  double D2 = squaredDistance(A, B);
  return Params.SignalVariance *
         std::exp(-0.5 * D2 / (Params.LengthScale * Params.LengthScale));
}

void GaussianProcess::kernelRow(const FlatRows &Rows, RowRef X, double *Out,
                                size_t Begin, size_t End) const {
  for (size_t I = Begin; I != End; ++I)
    Out[I] = kernel(X, Rows[I]);
}

double GaussianProcess::recomputeWeights() {
  size_t N = DataX.size();
  double Sum = 0.0;
  for (double Yi : DataY)
    Sum += Yi;
  MeanY = Sum / double(N);
  // Center straight into the weight buffer and solve in place: no
  // intermediate vector, same arithmetic.
  Alpha.resize(N);
  for (size_t I = 0; I != N; ++I)
    Alpha[I] = DataY[I] - MeanY;
  Factor->solveInPlace(Alpha.data());
  double Fit = 0.0;
  for (size_t I = 0; I != N; ++I)
    Fit += (DataY[I] - MeanY) * Alpha[I];
  LogMl = -0.5 * Fit - 0.5 * Factor->logDeterminant() -
          0.5 * double(N) * std::log(2.0 * M_PI);
  return LogMl;
}

double GaussianProcess::refitWith(const GpHyperParams &P) {
  ++FactorGen;
  Params = P;
  size_t N = DataX.size();
  // Only the lower triangle is filled — factorize() never reads above
  // the diagonal.  Rows are independent writes, so the fill shards onto
  // the scheduler bit-identically to the sequential loop.
  Matrix K(N, N);
  shardedFor(Workers, N, KernelFillShard,
             [&](size_t, size_t Begin, size_t End) {
               for (size_t I = Begin; I != End; ++I) {
                 double *Row = &K.at(I, 0);
                 for (size_t J = 0; J <= I; ++J)
                   Row[J] = kernel(DataX[I], DataX[J]);
                 Row[I] += Params.NoiseVariance + 1e-10;
               }
             });
  Factor = Cholesky::factorize(K, Workers);
  if (!Factor)
    return -1e300; // not PD under these hyperparameters
  return recomputeWeights();
}

void GaussianProcess::updateIncremental() {
  size_t N = DataX.size(); // includes the point just pushed
  if (!Factor || Factor->size() != N - 1) {
    // No factorization to extend (first data, or a failed earlier
    // solve): fall back to the full solve.
    refitWith(Params);
    return;
  }
  RowRef X = DataX[N - 1];
  UpdateScratch.resize(N - 1);
  kernelRow(DataX, X, UpdateScratch.data(), 0, N - 1);
  double Diag = kernel(X, X) + Params.NoiseVariance + 1e-10;
  if (!Factor->extend(UpdateScratch, Diag)) {
    // Numerically non-PD border: fall back to a full refactorization.
    // If even that fails (e.g. a non-finite feature), drop the offending
    // observation and restore the previous factor rather than leave the
    // model unusable.
    Cholesky Saved = *Factor; // engaged: extend() was just called on it
    refitWith(Params);
    if (!Factor) {
      DataX.popRow();
      DataY.pop_back();
      Factor = std::move(Saved);
    }
    return;
  }
  recomputeWeights();
}

void GaussianProcess::fit(const FlatRows &X, const std::vector<double> &Y) {
  assert(X.size() == Y.size() && !X.empty() && "bad training batch");
  DataX = X;
  DataY = Y;
  double Sum = 0.0;
  for (double Yi : Y)
    Sum += Yi;
  MeanY = Sum / double(Y.size());

  if (!Config.OptimizeHyperParams) {
    refitWith(Params);
    return;
  }

  // Random-restart search over (signal, length, noise) maximizing the log
  // marginal likelihood.  Scales are data-driven.
  double Var = 0.0;
  for (double Yi : Y)
    Var += (Yi - MeanY) * (Yi - MeanY);
  Var = std::max(Var / double(Y.size()), 1e-12);

  Rng R(Config.Seed);
  GpHyperParams Best = Params;
  double BestMl = -1e300;
  for (unsigned Trial = 0; Trial != Config.OptimizerRestarts; ++Trial) {
    GpHyperParams P;
    P.SignalVariance = Var * std::exp(R.nextUniform(-1.5, 1.5));
    P.LengthScale = std::exp(R.nextUniform(-1.5, 2.0));
    P.NoiseVariance = Var * std::exp(R.nextUniform(-9.0, -0.5));
    double Ml = refitWith(P);
    if (Ml > BestMl) {
      BestMl = Ml;
      Best = P;
    }
  }
  refitWith(Best);
}

void GaussianProcess::update(RowRef X, double Y) {
  DataX.push(X);
  DataY.push_back(Y);
  updateIncremental();
}

Prediction GaussianProcess::predict(RowRef X) const {
  assert(Factor && "GP not fitted");
  // Alpha holds one weight per fitted point: it bounds the prefix of
  // DataX the factor covers.
  size_t N = Alpha.size();
  // predict() runs concurrently from sharded scoring, so the kernel-row
  // scratch is per thread; the forward solve overwrites it in place
  // after the mean is accumulated.
  thread_local std::vector<double> Ks;
  Ks.resize(N);
  kernelRow(DataX, X, Ks.data(), 0, N);
  Prediction Out;
  Out.Mean = MeanY;
  for (size_t I = 0; I != N; ++I)
    Out.Mean += Ks[I] * Alpha[I];
  Factor->solveLowerInPlace(Ks.data());
  double Reduction = 0.0;
  for (size_t I = 0; I != N; ++I)
    Reduction += Ks[I] * Ks[I];
  Out.Variance =
      std::max(0.0, Params.SignalVariance - Reduction) + Params.NoiseVariance;
  return Out;
}

void GaussianProcess::predictBatch(const FlatRows &X, size_t Count,
                                   Prediction *Out) const {
  assert(Count <= X.size() && "batch count out of range");
  assert(Factor && "GP not fitted");
  size_t N = Alpha.size();
  // Means are accumulated while the buffer still holds raw kernel rows,
  // then the blocked forward solve overwrites it for the variances —
  // per point, exactly predict()'s arithmetic.
  thread_local std::vector<double> Ks;
  double *Rhs[PredictBlock];
  for (size_t B0 = 0; B0 < Count; B0 += PredictBlock) {
    size_t Num = std::min(PredictBlock, Count - B0);
    Ks.resize(Num * N);
    for (size_t C = 0; C != Num; ++C) {
      Rhs[C] = Ks.data() + C * N;
      kernelRow(DataX, X[B0 + C], Rhs[C], 0, N);
    }
    for (size_t C = 0; C != Num; ++C) {
      const double *Row = Ks.data() + C * N;
      double Mean = MeanY;
      for (size_t I = 0; I != N; ++I)
        Mean += Row[I] * Alpha[I];
      Out[B0 + C].Mean = Mean;
    }
    Factor->solveLowerManyInPlace(Rhs, nullptr, Num);
    for (size_t C = 0; C != Num; ++C) {
      const double *Row = Rhs[C];
      double Reduction = 0.0;
      for (size_t I = 0; I != N; ++I)
        Reduction += Row[I] * Row[I];
      Out[B0 + C].Variance =
          std::max(0.0, Params.SignalVariance - Reduction) +
          Params.NoiseVariance;
    }
  }
}

std::vector<const GaussianProcess::SolvedRow *>
GaussianProcess::solveRows(std::initializer_list<RowBlock> Blocks,
                           const ScoreContext &Ctx,
                           std::vector<SolvedRow> &Scratch) const {
  size_t N = Alpha.size(); // fitted prefix (see predict())
  // Size the cache and the scratch first: entries are addressed by
  // pointer from here on.
  size_t NumRows = 0, NumScratch = 0;
  for (const RowBlock &B : Blocks) {
    NumRows += B.Rows.size();
    if (!B.Ids)
      NumScratch += B.Rows.size();
    for (size_t I = 0; B.Ids && I != B.Rows.size(); ++I)
      if (B.Ids[I] >= Solved.size())
        Solved.resize(size_t(B.Ids[I]) + 1);
  }
  Scratch.resize(NumScratch);

  // Collect each distinct entry short of the factor, with the row that
  // feeds it and the row its solve resumes from.  Setting Len to N here
  // marks it, so a repeated id is queued once.
  struct Stale {
    SolvedRow *E;
    RowRef X;
    size_t Start;
  };
  std::vector<const SolvedRow *> Entries;
  Entries.reserve(NumRows);
  std::vector<Stale> Work;
  uint64_t KernelEvals = 0, SolveTerms = 0;
  size_t NextScratch = 0;
  for (const RowBlock &B : Blocks)
    for (size_t I = 0; I != B.Rows.size(); ++I) {
      SolvedRow &E = B.Ids ? Solved[B.Ids[I]] : Scratch[NextScratch++];
      Entries.push_back(&E);
      if (E.Gen != FactorGen) {
        E.Len = 0;
        E.Gen = FactorGen;
      }
      size_t Start = E.Len;
      assert(Start <= N && "forward solve outgrew the factor");
      if (Start == N)
        continue;
      if (Start == 0) {
        E.SumSq = 0.0;
        E.VarLeft = Params.SignalVariance;
      }
      if (E.V.size() < N) // headroom: most touches grow by a few rows
        E.V.resize(N + std::max<size_t>(N / 8, 32));
      E.Len = N;
      Work.push_back({&E, B.Rows[I], Start});
      KernelEvals += N - Start;
      SolveTerms += (N - Start) * (N + Start - 1) / 2; // rows Start..N-1
    }

  // Extend the stale entries in fixed-grid shards: kernel rows for the
  // missing rows, one blocked forward solve from each entry's start row,
  // then the running sums continued in index order.  Each shard writes
  // only its own entries, so the result does not depend on the grid or
  // on the order; sorting by start row keeps each shard's solve from
  // walking factor rows that most of its entries already cover.
  std::stable_sort(Work.begin(), Work.end(),
                   [](const Stale &A, const Stale &B) {
                     return A.Start > B.Start;
                   });
  shardedFor(Workers, Work.size(), Ctx.ShardSize,
             [&](size_t, size_t Begin, size_t End) {
               thread_local std::vector<double *> Rhs;
               thread_local std::vector<size_t> Starts;
               Rhs.clear();
               Starts.clear();
               for (size_t W = Begin; W != End; ++W) {
                 kernelRow(DataX, Work[W].X, Work[W].E->V.data(),
                           Work[W].Start, N);
                 Rhs.push_back(Work[W].E->V.data());
                 Starts.push_back(Work[W].Start);
               }
               Factor->solveLowerManyInPlace(Rhs.data(), Starts.data(),
                                             End - Begin);
               for (size_t W = Begin; W != End; ++W) {
                 SolvedRow &E = *Work[W].E;
                 for (size_t I = Work[W].Start; I != N; ++I) {
                   E.SumSq += E.V[I] * E.V[I];
                   E.VarLeft -= E.V[I] * E.V[I];
                 }
               }
             });
  if (Ctx.Stats) {
    Ctx.Stats->KernelEvals.fetch_add(KernelEvals, std::memory_order_relaxed);
    Ctx.Stats->SolveTerms.fetch_add(SolveTerms, std::memory_order_relaxed);
  }
  return Entries;
}

std::vector<double> GaussianProcess::almScores(const FlatRows &Candidates,
                                               const ScoreContext &Ctx) const {
  assert(Factor && "GP not fitted");
  // predict()'s variance: its forward solve and its sum of squares, in
  // the same order, read from the candidate's entry.
  std::vector<SolvedRow> Scratch;
  std::vector<const SolvedRow *> Solves =
      solveRows({{Candidates, Ctx.CandidateIds}}, Ctx, Scratch);
  std::vector<double> Scores(Candidates.size());
  for (size_t C = 0; C != Candidates.size(); ++C)
    Scores[C] = std::max(0.0, Params.SignalVariance - Solves[C]->SumSq) +
                Params.NoiseVariance;
  return Scores;
}

std::vector<double> GaussianProcess::alcScores(const FlatRows &Candidates,
                                               const FlatRows &Reference,
                                               const ScoreContext &Ctx) const {
  assert(Factor && "GP not fitted");
  // Exact GP ALC: adding candidate x reduces Var(ref r) by
  //   cov(r, x | data)^2 / (var(x | data) + noise),
  // computed in forward-solve form: with v = L^-1 k(., data),
  //   var(x | data)    = s - v_x . v_x   and
  //   cov(r, x | data) = k(r, x) - v_r . v_x.
  size_t N = Alpha.size(); // fitted prefix (see predict())
  size_t NumCand = Candidates.size(), NumRef = Reference.size();
  std::vector<SolvedRow> Scratch;
  std::vector<const SolvedRow *> Solves = solveRows(
      {{Candidates, Ctx.CandidateIds}, {Reference, Ctx.ReferenceIds}}, Ctx,
      Scratch);

  // The v_r are copied i-major (RefVT[I * NumRef + R] = v_r[I]) so the
  // cross term below runs its inner loop across references.
  std::vector<double> RefVT(N * NumRef);
  for (size_t R = 0; R != NumRef; ++R) {
    const double *V = Solves[NumCand + R]->V.data();
    for (size_t I = 0; I != N; ++I)
      RefVT[I * NumRef + R] = V[I];
  }

  // Candidates are scored in fixed-grid shards.  Every Cov[R] takes its
  // addends in index order I whichever loop runs outermost, so the
  // scores are bit-identical at any thread count.
  std::vector<double> Scores(NumCand, 0.0);
  shardedFor(Workers, NumCand, Ctx.ShardSize,
             [&](size_t, size_t Begin, size_t End) {
    thread_local std::vector<double> Cov;
    Cov.resize(NumRef);
    for (size_t C = Begin; C != End; ++C) {
      RowRef X = Candidates[C];
      const SolvedRow &S = *Solves[C];
      double VarX = std::max(S.VarLeft, 1e-12) + Params.NoiseVariance;
      for (size_t R = 0; R != NumRef; ++R)
        Cov[R] = kernel(Reference[R], X);
      for (size_t I = 0; I != N; ++I) {
        const double *Col = RefVT.data() + I * NumRef;
        double V = S.V[I];
        for (size_t R = 0; R != NumRef; ++R)
          Cov[R] -= Col[R] * V;
      }
      double Total = 0.0;
      for (size_t R = 0; R != NumRef; ++R)
        Total += Cov[R] * Cov[R] / VarX;
      Scores[C] = Total;
    }
  });
  return Scores;
}
