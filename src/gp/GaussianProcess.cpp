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
                                size_t Num) const {
  for (size_t I = 0; I != Num; ++I)
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

void GaussianProcess::refit() { refitWith(Params); }

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
  kernelRow(DataX, X, UpdateScratch.data(), N - 1);
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
  kernelRow(DataX, X, Ks.data(), N);
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
  for (size_t B0 = 0; B0 < Count; B0 += PredictBlock) {
    size_t Num = std::min(PredictBlock, Count - B0);
    Ks.resize(Num * N);
    for (size_t C = 0; C != Num; ++C)
      kernelRow(DataX, X[B0 + C], Ks.data() + C * N, N);
    for (size_t C = 0; C != Num; ++C) {
      const double *Row = Ks.data() + C * N;
      double Mean = MeanY;
      for (size_t I = 0; I != N; ++I)
        Mean += Row[I] * Alpha[I];
      Out[B0 + C].Mean = Mean;
    }
    Factor->solveLowerManyInPlace(Ks.data(), Num);
    for (size_t C = 0; C != Num; ++C) {
      const double *Row = Ks.data() + C * N;
      double Reduction = 0.0;
      for (size_t I = 0; I != N; ++I)
        Reduction += Row[I] * Row[I];
      Out[B0 + C].Variance =
          std::max(0.0, Params.SignalVariance - Reduction) +
          Params.NoiseVariance;
    }
  }
}

std::vector<double> GaussianProcess::almScores(const FlatRows &Candidates,
                                               const ScoreContext &Ctx) const {
  assert(Factor && "GP not fitted");
  size_t N = Alpha.size();
  // Per shard: one batch of kernel rows, one blocked forward solve.
  // Every candidate receives the same floating-point sequence as a
  // standalone predict(), so scores are bit-identical to the default
  // per-candidate path at any worker count.
  std::vector<double> Scores(Candidates.size());
  shardedFor(Ctx.Pool, Candidates.size(), Ctx.ShardSize,
             [&](size_t, size_t Begin, size_t End) {
               thread_local std::vector<double> Buf;
               size_t Num = End - Begin;
               Buf.resize(Num * N);
               for (size_t C = Begin; C != End; ++C)
                 kernelRow(DataX, Candidates[C], Buf.data() + (C - Begin) * N,
                           N);
               Factor->solveLowerManyInPlace(Buf.data(), Num);
               for (size_t C = Begin; C != End; ++C) {
                 const double *V = Buf.data() + (C - Begin) * N;
                 double Reduction = 0.0;
                 for (size_t I = 0; I != N; ++I)
                   Reduction += V[I] * V[I];
                 Scores[C] =
                     std::max(0.0, Params.SignalVariance - Reduction) +
                     Params.NoiseVariance;
               }
             });
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
  size_t NumRef = Reference.size();

  // v_r per reference is candidate-independent: kernel rows and one
  // batched forward solve per reference shard, each row an independent
  // write, so the sharded and sequential paths agree bitwise.  The
  // vectors are then copied i-major (RefVT[I * NumRef + R] = v_r[I]) so
  // the cross term below runs its inner loop across references.
  std::vector<double> RefVT(N * NumRef);
  {
    std::vector<double> RefV(NumRef * N);
    shardedFor(Ctx.Pool, NumRef, Ctx.ShardSize,
               [&](size_t, size_t Begin, size_t End) {
                 for (size_t R = Begin; R != End; ++R)
                   kernelRow(DataX, Reference[R], RefV.data() + R * N, N);
                 Factor->solveLowerManyInPlace(RefV.data() + Begin * N,
                                               End - Begin);
               });
    for (size_t R = 0; R != NumRef; ++R)
      for (size_t I = 0; I != N; ++I)
        RefVT[I * NumRef + R] = RefV[R * N + I];
  }

  // Candidates are scored in fixed-grid shards; each shard batches its
  // kernel rows through one blocked forward solve.  Every Cov[R] takes
  // its addends in index order I whichever loop runs outermost, so the
  // scores are bit-identical at any thread count.
  std::vector<double> Scores(Candidates.size(), 0.0);
  shardedFor(Ctx.Pool, Candidates.size(), Ctx.ShardSize,
             [&](size_t, size_t Begin, size_t End) {
    thread_local std::vector<double> VxBuf, Cov;
    size_t Num = End - Begin;
    VxBuf.resize(Num * N);
    Cov.resize(NumRef);
    for (size_t C = Begin; C != End; ++C)
      kernelRow(DataX, Candidates[C], VxBuf.data() + (C - Begin) * N, N);
    Factor->solveLowerManyInPlace(VxBuf.data(), Num);
    for (size_t C = Begin; C != End; ++C) {
      RowRef X = Candidates[C];
      const double *Vx = VxBuf.data() + (C - Begin) * N;
      double VarX = Params.SignalVariance;
      for (size_t I = 0; I != N; ++I)
        VarX -= Vx[I] * Vx[I];
      VarX = std::max(VarX, 1e-12) + Params.NoiseVariance;
      for (size_t R = 0; R != NumRef; ++R)
        Cov[R] = kernel(Reference[R], X);
      for (size_t I = 0; I != N; ++I) {
        const double *Col = RefVT.data() + I * NumRef;
        double V = Vx[I];
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
