//===- linalg/Cholesky.cpp ------------------------------------*- C++ -*-===//

#include "linalg/Cholesky.h"

#include "support/Error.h"
#include "support/Scheduler.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace alic;

namespace {

/// Acc - sum_k A[k]*B[k], subtracted strictly in index order — the one
/// inner loop every factorization and substitution path funnels
/// through, so the scalar, blocked, extended, and multi-RHS paths all
/// execute the identical floating-point operation sequence per element.
inline double dotSubtract(double Acc, const double *A, const double *B,
                          size_t Num) {
  for (size_t K = 0; K != Num; ++K)
    Acc -= A[K] * B[K];
  return Acc;
}

/// Width of the serially factored diagonal panels.  The serial fraction
/// of the blocked factorization is ~3*Panel/N of the flops, so 48 keeps
/// it under 3% at n >= 5000 while the panels stay comfortably in L1.
constexpr size_t FactorizePanel = 48;

/// Rows per forked trailing-update shard: a pure function of N (never
/// the worker count), so the shard grid — and with it the result — is
/// identical at any parallelism.
size_t factorizeRowShard(size_t N) { return std::max<size_t>(8, N / 128); }

} // namespace

std::optional<Cholesky> Cholesky::factorize(const Matrix &A,
                                            Scheduler *Workers) {
  assert(A.rows() == A.cols() && "Cholesky needs a square matrix");
  size_t N = A.rows();
  Cholesky F;
  F.N = N;
  F.Packed.resize(N * (N + 1) / 2);
  size_t RowShard = factorizeRowShard(N);
  for (size_t J0 = 0; J0 < N; J0 += FactorizePanel) {
    size_t J1 = std::min(J0 + FactorizePanel, N);
    // Diagonal panel: rows J0..J1-1 in order (each depends on the panel
    // rows above it).  Columns below J0 of these rows were produced as
    // trailing updates of earlier panels, so every dot product below
    // reads only final values — the classic scalar recurrence.
    for (size_t J = J0; J != J1; ++J) {
      double *RowJ = F.row(J);
      for (size_t C = J0; C != J; ++C) {
        const double *RowC = F.row(C);
        RowJ[C] = dotSubtract(A.at(J, C), RowJ, RowC, C) / RowC[C];
      }
      double Diag = dotSubtract(A.at(J, J), RowJ, RowJ, J);
      if (Diag <= 0.0 || !std::isfinite(Diag))
        return std::nullopt;
      RowJ[J] = std::sqrt(Diag);
    }
    // Trailing update: the panel columns of every row below the panel.
    // Rows are mutually independent (each reads only finished panel rows
    // and its own earlier columns), so they fork across the scheduler;
    // each shard writes a disjoint packed row range.
    shardedFor(Workers, N - J1, RowShard,
               [&](size_t, size_t Begin, size_t End) {
                 for (size_t I = J1 + Begin; I != J1 + End; ++I) {
                   double *RowI = F.row(I);
                   for (size_t C = J0; C != J1; ++C) {
                     const double *RowC = F.row(C);
                     RowI[C] =
                         dotSubtract(A.at(I, C), RowI, RowC, C) / RowC[C];
                   }
                 }
               });
  }
  return F;
}

bool Cholesky::extend(RowRef B, double C) {
  assert(B.size() == N && "border size mismatch");
  // Append the border as a new packed row and forward-substitute it in
  // place — the same recurrence, in the same order, factorize() applies
  // to its last row.  Growth is amortized O(n) via the buffer's
  // geometric reallocation; nothing else moves.
  size_t Base = Packed.size();
  Packed.resize(Base + N + 1);
  double *Row = Packed.data() + Base;
  for (size_t I = 0; I != N; ++I)
    Row[I] = B[I];
  for (size_t I = 0; I != N; ++I) {
    const double *RowI = row(I);
    Row[I] = dotSubtract(Row[I], RowI, Row, I) / RowI[I];
  }
  double Diag = dotSubtract(C, Row, Row, N);
  if (Diag <= 0.0 || !std::isfinite(Diag)) {
    Packed.resize(Base); // shrink: no reallocation, factor untouched
    return false;
  }
  Row[N] = std::sqrt(Diag);
  ++N;
  return true;
}

void Cholesky::solveLowerInPlace(double *B) const {
  for (size_t I = 0; I != N; ++I) {
    const double *RowI = row(I);
    B[I] = dotSubtract(B[I], RowI, B, I) / RowI[I];
  }
}

void Cholesky::solveInPlace(double *B) const {
  solveLowerInPlace(B);
  // Back substitution with L^T: a column walk through the packed rows.
  for (size_t I = N; I-- > 0;) {
    double Sum = B[I];
    for (size_t K = I + 1; K != N; ++K)
      Sum -= at(K, I) * B[K];
    B[I] = Sum / at(I, I);
  }
}

void Cholesky::solveLowerManyInPlace(double *const *Rhs, const size_t *Start,
                                     size_t NumRhs) const {
  size_t First = Start ? N : 0;
  for (size_t R = 0; Start && R != NumRhs; ++R)
    First = std::min(First, Start[R]);
  // Factor-row outer loop: row I streams from cache through every
  // right-hand side not yet solved past it.  Per right-hand side the
  // arithmetic is exactly solveLowerInPlace()'s.
  for (size_t I = First; I < N; ++I) {
    const double *RowI = row(I);
    for (size_t R = 0; R != NumRhs; ++R) {
      if (Start && I < Start[R])
        continue;
      double *B = Rhs[R];
      B[I] = dotSubtract(B[I], RowI, B, I) / RowI[I];
    }
  }
}

std::vector<double> Cholesky::solveLower(const std::vector<double> &B) const {
  assert(B.size() == N && "rhs size mismatch");
  std::vector<double> Y = B;
  solveLowerInPlace(Y.data());
  return Y;
}

std::vector<double> Cholesky::solve(const std::vector<double> &B) const {
  assert(B.size() == N && "rhs size mismatch");
  std::vector<double> X = B;
  solveInPlace(X.data());
  return X;
}

double Cholesky::logDeterminant() const {
  double Sum = 0.0;
  for (size_t I = 0; I != N; ++I)
    Sum += std::log(at(I, I));
  return 2.0 * Sum;
}

Matrix Cholesky::factor() const {
  Matrix L(N, N, 0.0);
  for (size_t I = 0; I != N; ++I)
    for (size_t J = 0; J <= I; ++J)
      L.at(I, J) = at(I, J);
  return L;
}
