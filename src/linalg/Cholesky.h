//===- linalg/Cholesky.h - Cholesky factorization --------------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cholesky factorization and solves for symmetric positive-definite
/// systems — the O(n^3) kernel inside exact GP inference.
///
/// The factor is held in *packed* lower-triangular storage: row I of L
/// occupies the I+1 contiguous entries starting at I*(I+1)/2, so the
/// whole factor is one n(n+1)/2-double buffer with unit-stride rows and
/// no dead upper triangle.  Two properties of that layout carry the GP
/// hot paths:
///
///  * every forward-substitution and factorization inner loop is a dot
///    product of two packed rows — contiguous, cache-linear reads;
///
///  * extend() grows the factor by appending one packed row *in place*
///    (amortized O(n) writes via the buffer's geometric growth), where
///    the previous Matrix-backed representation allocated and copied an
///    entire (n+1)^2 matrix per observation — an O(n^2)-copy-per-update
///    bug that made n incremental GP updates cost O(n^3) in copies
///    alone.
///
/// factorize() is panel-blocked and may fork the independent trailing
/// rows of each panel onto a support/Scheduler.  Every element L(I,J) is
/// still produced by the classic scalar recurrence — one k-ordered dot
/// product over the final values of rows I and J — so the blocked,
/// parallel factor is bit-identical to the sequential scalar loop at any
/// worker count and steal order (determinism by construction: work is
/// split *across* independent elements, no dot product's addends are
/// ever reordered).  extend() reproduces the same recurrence for its one
/// new row, which keeps the grown factor bit-identical to refactorizing
/// from scratch.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_LINALG_CHOLESKY_H
#define ALIC_LINALG_CHOLESKY_H

#include "linalg/Matrix.h"

#include <optional>
#include <vector>

namespace alic {

class Scheduler;

/// Lower-triangular Cholesky factor L with A = L L^T, in packed
/// row-major triangular storage.
class Cholesky {
public:
  /// Factorizes symmetric positive-definite \p A.  Returns std::nullopt
  /// if \p A is not (numerically) positive definite.  When \p Workers is
  /// non-null the panel-blocked trailing updates fork onto it; the
  /// result is bit-identical to the sequential run at any worker count
  /// (see the file comment for the argument).
  static std::optional<Cholesky> factorize(const Matrix &A,
                                           Scheduler *Workers = nullptr);

  /// Grows the factor of an n x n matrix A to the factor of the bordered
  /// (n+1) x (n+1) matrix [[A, B], [B^T, C]] in O(n^2) flops and
  /// amortized O(n) copies — the rank-1 extension that lets a GP absorb
  /// one observation without the O(n^3) refactorization.  The new row is
  /// produced by the same recurrence, in the same order, as factorize()
  /// would use, so the grown factor is bit-identical to factorizing the
  /// bordered matrix from scratch.  Returns false (leaving the factor
  /// unchanged) if the bordered matrix is not numerically positive
  /// definite.
  bool extend(RowRef B, double C);

  /// Pre-allocates packed storage for growth to \p Rows rows, so a
  /// run of extend() calls performs no reallocation at all.
  void reserve(size_t Rows) { Packed.reserve(Rows * (Rows + 1) / 2); }

  /// Solves A x = \p B via the factor.
  std::vector<double> solve(const std::vector<double> &B) const;

  /// Solves L y = \p B (forward substitution).
  std::vector<double> solveLower(const std::vector<double> &B) const;

  /// In-place forward substitution: overwrites \p B (size() entries)
  /// with the solution of L y = B.  Identical arithmetic to
  /// solveLower(), without the allocation.
  void solveLowerInPlace(double *B) const;

  /// In-place full solve: overwrites \p B (size() entries) with the
  /// solution of A x = B.  Identical arithmetic to solve(), without the
  /// allocation.
  void solveInPlace(double *B) const;

  /// Blocked multi-RHS forward substitution from a start row per
  /// right-hand side: \p Rhs[R] points to size() entries, of which the
  /// first \p Start[R] already hold the solution of L y = b and the rest
  /// hold b; rows Start[R]..size()-1 are overwritten with the solution.
  /// A null \p Start solves every right-hand side from row 0.  Row I of
  /// a forward solve reads only rows < I of L and y, and extend() never
  /// changes an existing row, so a prefix solved against a smaller factor
  /// that extend() grew into this one is a valid start.  Each right-hand
  /// side receives exactly the arithmetic of solveLowerInPlace() — the
  /// factor row is simply reused across all of them from cache — so the
  /// results are bit-identical to NumRhs independent full solves.
  void solveLowerManyInPlace(double *const *Rhs, const size_t *Start,
                             size_t NumRhs) const;

  /// log(det A) = 2 * sum(log diag L).
  double logDeterminant() const;

  /// Dimension of the factored matrix.
  size_t size() const { return N; }

  /// Entry L(I, J) of the factor, J <= I.
  double at(size_t I, size_t J) const { return Packed[I * (I + 1) / 2 + J]; }

  /// The lower-triangular factor, unpacked into a dense matrix (zeros
  /// above the diagonal).  Test/diagnostic helper — hot paths read the
  /// packed rows directly.
  Matrix factor() const;

  /// The packed row-major triangular buffer (size()*(size()+1)/2
  /// entries; row I starts at I*(I+1)/2).
  const std::vector<double> &packed() const { return Packed; }

private:
  Cholesky() = default;

  /// Pointer to packed row \p I (I+1 entries).
  const double *row(size_t I) const { return Packed.data() + I * (I + 1) / 2; }
  double *row(size_t I) { return Packed.data() + I * (I + 1) / 2; }

  size_t N = 0;
  std::vector<double> Packed;
};

} // namespace alic

#endif // ALIC_LINALG_CHOLESKY_H
