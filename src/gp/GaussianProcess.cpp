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
  return Config.Approx == GpApprox::SoR ? refitWithSor(P) : refitWithExact(P);
}

double GaussianProcess::refitWithExact(const GpHyperParams &P) {
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
  // Restart 0 of a re-optimization: the previous optimum.  Evaluating it
  // first (the random restarts draw the same stream either way) makes
  // the selected log marginal likelihood numerically no worse than a
  // cold search — and the first fit() identical to one.
  if (Config.WarmStart && PrevOptimum) {
    BestMl = refitWith(*PrevOptimum);
    Best = *PrevOptimum;
  }
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
  PrevOptimum = Best;
}

void GaussianProcess::update(RowRef X, double Y) {
  DataX.push(X);
  DataY.push_back(Y);
  if (Config.Approx == GpApprox::SoR)
    updateIncrementalSor();
  else
    updateIncremental();
}

Prediction GaussianProcess::predict(RowRef X) const {
  return Config.Approx == GpApprox::SoR ? predictSor(X) : predictExact(X);
}

Prediction GaussianProcess::predictExact(RowRef X) const {
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
  if (Config.Approx == GpApprox::SoR) {
    assert(AFactor && "GP (SoR) not fitted");
    size_t M = Inducing.size();
    thread_local std::vector<double> KBuf, VBuf;
    for (size_t B0 = 0; B0 < Count; B0 += PredictBlock) {
      size_t Num = std::min(PredictBlock, Count - B0);
      KBuf.resize(Num * M);
      for (size_t C = 0; C != Num; ++C)
        kernelRow(InducingX, X[B0 + C], KBuf.data() + C * M, M);
      VBuf.assign(KBuf.begin(), KBuf.begin() + Num * M);
      AFactor->solveManyInPlace(VBuf.data(), Num);
      for (size_t C = 0; C != Num; ++C) {
        const double *K = KBuf.data() + C * M;
        const double *V = VBuf.data() + C * M;
        double Mean = MeanY;
        for (size_t I = 0; I != M; ++I)
          Mean += K[I] * SorW[I];
        double Q = 0.0;
        for (size_t I = 0; I != M; ++I)
          Q += K[I] * V[I];
        Out[B0 + C].Mean = Mean;
        Out[B0 + C].Variance = std::max(0.0, Q) + Params.NoiseVariance;
      }
    }
    return;
  }
  assert(Factor && "GP not fitted");
  size_t N = Alpha.size();
  // Means are accumulated while the buffer still holds raw kernel rows,
  // then the blocked forward solve overwrites it for the variances —
  // per point, exactly predictExact()'s arithmetic.
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
  if (Config.Approx == GpApprox::SoR)
    return almScoresSor(Candidates, Ctx);
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
  if (Config.Approx == GpApprox::SoR)
    return alcScoresSor(Candidates, Reference, Ctx);
  assert(Factor && "GP not fitted");
  // Exact GP ALC: adding candidate x reduces Var(ref r) by
  //   cov(r, x | data)^2 / (var(x | data) + noise),
  // computed in forward-solve form: with v = L^-1 k(., data),
  //   var(x | data)    = s - v_x . v_x   and
  //   cov(r, x | data) = k(r, x) - v_r . v_x.
  size_t N = Alpha.size(); // fitted prefix (see predictExact())
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

//===----------------------------------------------------------------------===//
// Subset of regressors
//===----------------------------------------------------------------------===//

void GaussianProcess::chooseInducing() {
  size_t N = DataX.size();
  size_t M = std::min<size_t>(Config.InducingPoints, N);
  // The inducing subset is a pure function of (Seed, N, M): any two fits
  // of the same data under the same config pick the same points, at any
  // worker count.  Sorted so streaming passes touch DataX in order.
  Rng R(hashCombine({Config.Seed, 0x536f52ull})); // "SoR"
  std::vector<size_t> Idx = R.sampleIndices(N, M);
  std::sort(Idx.begin(), Idx.end());
  Inducing.resize(M);
  for (size_t I = 0; I != M; ++I)
    Inducing[I] = uint32_t(Idx[I]);
  InducingX.clear();
  InducingX.reserveRows(M);
  for (uint32_t I : Inducing)
    InducingX.push(DataX[I]);
}

double GaussianProcess::refitWithSor(const GpHyperParams &P) {
  Params = P;
  size_t N = DataX.size();
  chooseInducing();
  size_t M = Inducing.size();
  // K_mm with a relative jitter: inducing points drawn from revisited
  // training data can coincide exactly, and an absolute 1e-10 drowns at
  // SignalVariance scale.
  double Jitter = 1e-8 * Params.SignalVariance + 1e-10;
  Matrix Kmm(M, M);
  for (size_t I = 0; I != M; ++I) {
    double *Row = &Kmm.at(I, 0);
    for (size_t J = 0; J <= I; ++J)
      Row[J] = kernel(InducingX[I], InducingX[J]);
    Row[I] += Jitter;
  }
  std::optional<Cholesky> KmmF = Cholesky::factorize(Kmm, Workers);
  if (!KmmF) {
    AFactor.reset();
    return -1e300; // not PD under these hyperparameters
  }
  KmmLogDet = KmmF->logDeterminant();

  // A = K_mm + sigma^-2 K_mn K_nm, streamed one data row at a time —
  // K_mn is never materialized.  The running sums BRaw/SVec/SumY keep
  // the mean-centering exact under later rank-1 updates.
  double InvNoise = 1.0 / Params.NoiseVariance;
  Matrix A = Kmm;
  BRaw.assign(M, 0.0);
  SVec.assign(M, 0.0);
  SumY = 0.0;
  SumY2 = 0.0;
  UpdateScratch.resize(M);
  double *K = UpdateScratch.data();
  for (size_t R = 0; R != N; ++R) {
    kernelRow(InducingX, DataX[R], K, M);
    double Y = DataY[R];
    SumY += Y;
    SumY2 += Y * Y;
    for (size_t I = 0; I != M; ++I) {
      double Ki = K[I];
      BRaw[I] += Ki * Y;
      SVec[I] += Ki;
      double *RowI = &A.at(I, 0);
      for (size_t J = 0; J <= I; ++J)
        RowI[J] += InvNoise * Ki * K[J];
    }
  }
  AFactor = Cholesky::factorize(A, Workers);
  if (!AFactor)
    return -1e300;
  MeanY = SumY / double(N);
  SorFittedN = N;
  return recomputeSorWeights();
}

double GaussianProcess::recomputeSorWeights() {
  size_t N = SorFittedN;
  size_t M = Inducing.size();
  // Centered projected targets bc = BRaw - MeanY * SVec; weights are
  // sigma^-2 A^-1 bc.
  SorW.resize(M);
  for (size_t I = 0; I != M; ++I)
    SorW[I] = BRaw[I] - MeanY * SVec[I];
  AFactor->solveInPlace(SorW.data()); // A^-1 bc
  double Quad = 0.0;                  // bc^T A^-1 bc
  for (size_t I = 0; I != M; ++I)
    Quad += (BRaw[I] - MeanY * SVec[I]) * SorW[I];
  // SoR marginal: y~ | 0 ~ N(0, sigma^2 I + K_nm K_mm^-1 K_mn).
  // Woodbury gives the quadratic form
  // sigma^-2 y~^T y~ - sigma^-4 bc^T A^-1 bc, the determinant lemma
  // n log sigma^2 + log|A| - log|K_mm|.
  double Yc2 = SumY2 - MeanY * SumY; // sum (y - mean)^2
  double InvNoise = 1.0 / Params.NoiseVariance;
  double FitTerm = InvNoise * (Yc2 - InvNoise * Quad);
  double LogDet = double(N) * std::log(Params.NoiseVariance) +
                  AFactor->logDeterminant() - KmmLogDet;
  LogMl = -0.5 * FitTerm - 0.5 * LogDet -
          0.5 * double(N) * std::log(2.0 * M_PI);
  for (size_t I = 0; I != M; ++I)
    SorW[I] *= InvNoise;
  return LogMl;
}

void GaussianProcess::updateIncrementalSor() {
  size_t N = DataX.size(); // includes the point just pushed
  if (!AFactor || SorFittedN != N - 1) {
    refitWith(Params);
    return;
  }
  size_t M = Inducing.size();
  RowRef X = DataX[N - 1];
  double Y = DataY[N - 1];
  UpdateScratch.resize(M);
  kernelRow(InducingX, X, UpdateScratch.data(), M);
  bool Finite = std::isfinite(Y);
  for (double Ki : UpdateScratch)
    Finite = Finite && std::isfinite(Ki);
  if (!Finite) {
    // A poisoned rank-1 update is irrecoverable (contrast the exact
    // path, which can refactorize from scratch): drop the observation.
    DataX.popRow();
    DataY.pop_back();
    return;
  }
  // A += sigma^-2 k k^T, applied as the rank-1 Cholesky update with
  // v = k / sigma.  The inducing set itself stays fixed until the next
  // refit — the standard SoR regime, where m bounds the basis and new
  // data only sharpens the projected posterior.
  SumY += Y;
  SumY2 += Y * Y;
  double InvSigma = 1.0 / std::sqrt(Params.NoiseVariance);
  UpdateScratch2.resize(M);
  for (size_t I = 0; I != M; ++I) {
    double Ki = UpdateScratch[I];
    BRaw[I] += Ki * Y;
    SVec[I] += Ki;
    UpdateScratch2[I] = Ki * InvSigma;
  }
  AFactor->rankOneUpdate(UpdateScratch2);
  MeanY = SumY / double(N);
  SorFittedN = N;
  recomputeSorWeights();
}

Prediction GaussianProcess::predictSor(RowRef X) const {
  assert(AFactor && "GP (SoR) not fitted");
  size_t M = Inducing.size();
  thread_local std::vector<double> K, V;
  K.resize(M);
  kernelRow(InducingX, X, K.data(), M);
  Prediction Out;
  Out.Mean = MeanY;
  for (size_t I = 0; I != M; ++I)
    Out.Mean += K[I] * SorW[I];
  V.assign(K.begin(), K.end());
  AFactor->solveInPlace(V.data());
  double Q = 0.0; // k^T A^-1 k — the projected predictive variance
  for (size_t I = 0; I != M; ++I)
    Q += K[I] * V[I];
  Out.Variance = std::max(0.0, Q) + Params.NoiseVariance;
  return Out;
}

std::vector<double>
GaussianProcess::almScoresSor(const FlatRows &Candidates,
                              const ScoreContext &Ctx) const {
  assert(AFactor && "GP (SoR) not fitted");
  size_t M = Inducing.size();
  std::vector<double> Scores(Candidates.size());
  shardedFor(Ctx.Pool, Candidates.size(), Ctx.ShardSize,
             [&](size_t, size_t Begin, size_t End) {
               thread_local std::vector<double> KBuf, VBuf;
               size_t Num = End - Begin;
               KBuf.resize(Num * M);
               for (size_t C = Begin; C != End; ++C)
                 kernelRow(InducingX, Candidates[C],
                           KBuf.data() + (C - Begin) * M, M);
               VBuf.assign(KBuf.begin(), KBuf.begin() + Num * M);
               AFactor->solveManyInPlace(VBuf.data(), Num);
               for (size_t C = Begin; C != End; ++C) {
                 const double *K = KBuf.data() + (C - Begin) * M;
                 const double *V = VBuf.data() + (C - Begin) * M;
                 double Q = 0.0;
                 for (size_t I = 0; I != M; ++I)
                   Q += K[I] * V[I];
                 Scores[C] = std::max(0.0, Q) + Params.NoiseVariance;
               }
             });
  return Scores;
}

std::vector<double>
GaussianProcess::alcScoresSor(const FlatRows &Candidates,
                              const FlatRows &Reference,
                              const ScoreContext &Ctx) const {
  assert(AFactor && "GP (SoR) not fitted");
  // SoR posterior over the projected weights u has covariance A^-1, so
  //   cov(f(r), f(x) | data) = k_r^T A^-1 k_x   and
  //   var(f(x) | data)       = k_x^T A^-1 k_x.
  size_t M = Inducing.size();

  // U_r = A^-1 k_r per reference row — candidate-independent, and each
  // row is produced by one independent full solve, so the sharded fill
  // agrees bitwise with the sequential one.
  Matrix RefU(Reference.size(), M);
  shardedFor(Ctx.Pool, Reference.size(), Ctx.ShardSize,
             [&](size_t, size_t Begin, size_t End) {
               for (size_t R = Begin; R != End; ++R)
                 kernelRow(InducingX, Reference[R], &RefU.at(R, 0), M);
               AFactor->solveManyInPlace(&RefU.at(Begin, 0), End - Begin);
             });

  std::vector<double> Scores(Candidates.size(), 0.0);
  shardedFor(Ctx.Pool, Candidates.size(), Ctx.ShardSize,
             [&](size_t, size_t Begin, size_t End) {
               thread_local std::vector<double> KBuf, VBuf;
               size_t Num = End - Begin;
               KBuf.resize(Num * M);
               for (size_t C = Begin; C != End; ++C)
                 kernelRow(InducingX, Candidates[C],
                           KBuf.data() + (C - Begin) * M, M);
               VBuf.assign(KBuf.begin(), KBuf.begin() + Num * M);
               AFactor->solveManyInPlace(VBuf.data(), Num);
               for (size_t C = Begin; C != End; ++C) {
                 const double *Kx = KBuf.data() + (C - Begin) * M;
                 const double *Vx = VBuf.data() + (C - Begin) * M;
                 double VarX = 0.0;
                 for (size_t I = 0; I != M; ++I)
                   VarX += Kx[I] * Vx[I];
                 VarX = std::max(VarX, 1e-12) + Params.NoiseVariance;
                 double Total = 0.0;
                 for (size_t R = 0; R != Reference.size(); ++R) {
                   const double *Ur = &RefU.at(R, 0);
                   double Cov = 0.0;
                   for (size_t I = 0; I != M; ++I)
                     Cov += Ur[I] * Kx[I];
                   Total += Cov * Cov / VarX;
                 }
                 Scores[C] = Total;
               }
             });
  return Scores;
}
