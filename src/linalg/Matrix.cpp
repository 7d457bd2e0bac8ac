//===- linalg/Matrix.cpp --------------------------------------*- C++ -*-===//

#include "linalg/Matrix.h"

#include "support/Error.h"

#include <cassert>
#include <cmath>

using namespace alic;

Matrix::Matrix(size_t Rows, size_t Cols, double Fill)
    : NumRows(Rows), NumCols(Cols), Data(Rows * Cols, Fill) {}

Matrix Matrix::identity(size_t N) {
  Matrix I(N, N, 0.0);
  for (size_t K = 0; K != N; ++K)
    I.at(K, K) = 1.0;
  return I;
}

Matrix Matrix::multiply(const Matrix &Rhs) const {
  assert(NumCols == Rhs.NumRows && "inner dimensions must agree");
  Matrix Result(NumRows, Rhs.NumCols, 0.0);
  for (size_t I = 0; I != NumRows; ++I)
    for (size_t K = 0; K != NumCols; ++K) {
      double Aik = at(I, K);
      if (Aik == 0.0)
        continue;
      for (size_t J = 0; J != Rhs.NumCols; ++J)
        Result.at(I, J) += Aik * Rhs.at(K, J);
    }
  return Result;
}

std::vector<double> Matrix::multiply(const std::vector<double> &X) const {
  assert(X.size() == NumCols && "vector length must equal column count");
  std::vector<double> Result(NumRows, 0.0);
  for (size_t I = 0; I != NumRows; ++I) {
    double Sum = 0.0;
    for (size_t J = 0; J != NumCols; ++J)
      Sum += at(I, J) * X[J];
    Result[I] = Sum;
  }
  return Result;
}

Matrix Matrix::transpose() const {
  Matrix Result(NumCols, NumRows);
  for (size_t I = 0; I != NumRows; ++I)
    for (size_t J = 0; J != NumCols; ++J)
      Result.at(J, I) = at(I, J);
  return Result;
}

void Matrix::addToDiagonal(double Value) {
  size_t N = NumRows < NumCols ? NumRows : NumCols;
  for (size_t I = 0; I != N; ++I)
    at(I, I) += Value;
}

double Matrix::maxAbsDiff(const Matrix &Rhs) const {
  assert(NumRows == Rhs.NumRows && NumCols == Rhs.NumCols &&
         "shape mismatch in maxAbsDiff");
  double Max = 0.0;
  for (size_t I = 0; I != Data.size(); ++I) {
    double D = std::fabs(Data[I] - Rhs.Data[I]);
    if (D > Max)
      Max = D;
  }
  return Max;
}

double alic::squaredDistance(RowRef A, RowRef B) {
  assert(A.size() == B.size() && "distance size mismatch");
  double Sum = 0.0;
  for (size_t I = 0; I != A.size(); ++I) {
    double D = A[I] - B[I];
    Sum += D * D;
  }
  return Sum;
}
