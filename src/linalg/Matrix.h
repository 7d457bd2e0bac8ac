//===- linalg/Matrix.h - Dense matrices and vectors -----------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small dense row-major matrix type: exactly what exact Gaussian-process
/// inference needs (symmetric solves, products), nothing more.  The paper
/// cites the O(n^3) cost of GP inference as the reason to prefer dynamic
/// trees; src/gp builds on this module to reproduce that comparison.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_LINALG_MATRIX_H
#define ALIC_LINALG_MATRIX_H

#include "support/FlatRows.h"

#include <cstddef>
#include <vector>

namespace alic {

/// Dense row-major matrix of doubles.
class Matrix {
public:
  /// Creates an empty 0x0 matrix.
  Matrix() = default;

  /// Creates a \p Rows x \p Cols matrix filled with \p Fill.
  Matrix(size_t Rows, size_t Cols, double Fill = 0.0);

  /// Returns the \p N x \p N identity.
  static Matrix identity(size_t N);

  /// Number of rows.
  size_t rows() const { return NumRows; }
  /// Number of columns.
  size_t cols() const { return NumCols; }

  /// Mutable reference to entry (\p Row, \p Col) of the row-major buffer.
  double &at(size_t Row, size_t Col) { return Data[Row * NumCols + Col]; }
  /// Entry (\p Row, \p Col) of the row-major buffer.
  double at(size_t Row, size_t Col) const { return Data[Row * NumCols + Col]; }

  /// Matrix-matrix product; dimensions must agree.
  Matrix multiply(const Matrix &Rhs) const;

  /// Matrix-vector product; \p X must have cols() entries.
  std::vector<double> multiply(const std::vector<double> &X) const;

  /// Transpose.
  Matrix transpose() const;

  /// Adds \p Value to every diagonal entry (jitter/noise term).
  void addToDiagonal(double Value);

  /// Maximum absolute entry difference against \p Rhs (must match shape).
  double maxAbsDiff(const Matrix &Rhs) const;

private:
  size_t NumRows = 0;
  size_t NumCols = 0;
  std::vector<double> Data;
};

/// Squared Euclidean distance between equally sized rows (accepts
/// std::vector<double> and FlatRows rows alike via RowRef).
double squaredDistance(RowRef A, RowRef B);

} // namespace alic

#endif // ALIC_LINALG_MATRIX_H
