//===- tests/linalg_test.cpp - linalg/ unit tests -------------*- C++ -*-===//

#include "linalg/Cholesky.h"
#include "linalg/Matrix.h"
#include "support/Rng.h"
#include "support/Scheduler.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace alic;

namespace {

/// Random symmetric positive-definite matrix A = B B^T + n I.
Matrix randomSpd(size_t N, Rng &R) {
  Matrix B(N, N);
  for (size_t I = 0; I != N; ++I)
    for (size_t J = 0; J != N; ++J)
      B.at(I, J) = R.nextGaussian();
  Matrix A = B.multiply(B.transpose());
  A.addToDiagonal(double(N) * 0.1);
  return A;
}

/// Textbook scalar left-looking Cholesky: the recurrence the blocked,
/// parallel factorize() must reproduce element for element.
Matrix scalarCholeskyReference(const Matrix &A) {
  size_t N = A.rows();
  Matrix L(N, N, 0.0);
  for (size_t I = 0; I != N; ++I) {
    for (size_t J = 0; J <= I; ++J) {
      double Acc = A.at(I, J);
      for (size_t K = 0; K != J; ++K)
        Acc -= L.at(I, K) * L.at(J, K);
      L.at(I, J) = I == J ? std::sqrt(Acc) : Acc / L.at(J, J);
    }
  }
  return L;
}

} // namespace

TEST(MatrixTest, IdentityMultiply) {
  Rng R(1);
  Matrix A(4, 4);
  for (size_t I = 0; I != 4; ++I)
    for (size_t J = 0; J != 4; ++J)
      A.at(I, J) = R.nextGaussian();
  Matrix I4 = Matrix::identity(4);
  EXPECT_NEAR(A.multiply(I4).maxAbsDiff(A), 0.0, 1e-14);
  EXPECT_NEAR(I4.multiply(A).maxAbsDiff(A), 0.0, 1e-14);
}

TEST(MatrixTest, MultiplyKnownValues) {
  Matrix A(2, 3);
  A.at(0, 0) = 1;
  A.at(0, 1) = 2;
  A.at(0, 2) = 3;
  A.at(1, 0) = 4;
  A.at(1, 1) = 5;
  A.at(1, 2) = 6;
  std::vector<double> X = {1.0, 0.0, -1.0};
  std::vector<double> Y = A.multiply(X);
  EXPECT_NEAR(Y[0], -2.0, 1e-14);
  EXPECT_NEAR(Y[1], -2.0, 1e-14);
}

TEST(MatrixTest, TransposeInvolution) {
  Rng R(2);
  Matrix A(3, 5);
  for (size_t I = 0; I != 3; ++I)
    for (size_t J = 0; J != 5; ++J)
      A.at(I, J) = R.nextGaussian();
  EXPECT_NEAR(A.transpose().transpose().maxAbsDiff(A), 0.0, 0.0);
}

TEST(MatrixTest, SquaredDistance) {
  std::vector<double> A = {1.0, 2.0};
  std::vector<double> B = {3.0, -1.0};
  EXPECT_NEAR(squaredDistance(A, B), 4.0 + 9.0, 1e-14);
}

class CholeskyTest : public testing::TestWithParam<size_t> {};

TEST_P(CholeskyTest, FactorReconstructsMatrix) {
  Rng R(GetParam() * 7 + 1);
  size_t N = GetParam();
  Matrix A = randomSpd(N, R);
  auto F = Cholesky::factorize(A);
  ASSERT_TRUE(F.has_value());
  const Matrix &L = F->factor();
  Matrix Rec = L.multiply(L.transpose());
  EXPECT_LT(Rec.maxAbsDiff(A), 1e-8 * double(N));
}

TEST_P(CholeskyTest, SolveMatchesDirectResidual) {
  Rng R(GetParam() * 13 + 5);
  size_t N = GetParam();
  Matrix A = randomSpd(N, R);
  std::vector<double> B(N);
  for (double &V : B)
    V = R.nextGaussian();
  auto F = Cholesky::factorize(A);
  ASSERT_TRUE(F.has_value());
  std::vector<double> X = F->solve(B);
  std::vector<double> Ax = A.multiply(X);
  for (size_t I = 0; I != N; ++I)
    EXPECT_NEAR(Ax[I], B[I], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyTest,
                         testing::Values(1, 2, 3, 5, 10, 25, 60));

TEST(CholeskyTest, LogDeterminantKnownValue) {
  Matrix A(2, 2);
  A.at(0, 0) = 4.0;
  A.at(1, 1) = 9.0;
  auto F = Cholesky::factorize(A);
  ASSERT_TRUE(F.has_value());
  EXPECT_NEAR(F->logDeterminant(), std::log(36.0), 1e-12);
}

TEST(CholeskyTest, RejectsIndefiniteMatrix) {
  Matrix A(2, 2);
  A.at(0, 0) = 1.0;
  A.at(0, 1) = 2.0;
  A.at(1, 0) = 2.0;
  A.at(1, 1) = 1.0; // eigenvalues 3 and -1
  EXPECT_FALSE(Cholesky::factorize(A).has_value());
}

TEST(CholeskyTest, ExtendMatchesFullRefactorization) {
  Rng R(31);
  const size_t N = 40;
  Matrix A = randomSpd(N, R);
  auto Full = Cholesky::factorize(A);
  ASSERT_TRUE(Full.has_value());

  // Factor the leading (N-1)x(N-1) block, then border it with A's last
  // row and column.
  Matrix Lead(N - 1, N - 1);
  for (size_t I = 0; I != N - 1; ++I)
    for (size_t J = 0; J != N - 1; ++J)
      Lead.at(I, J) = A.at(I, J);
  auto Grown = Cholesky::factorize(Lead);
  ASSERT_TRUE(Grown.has_value());
  std::vector<double> Border(N - 1);
  for (size_t I = 0; I != N - 1; ++I)
    Border[I] = A.at(N - 1, I);
  ASSERT_TRUE(Grown->extend(Border, A.at(N - 1, N - 1)));

  EXPECT_EQ(Grown->size(), N);
  // extend() reproduces factorize()'s arithmetic: the factors agree
  // bit-for-bit, not merely within tolerance.
  EXPECT_EQ(Grown->factor().maxAbsDiff(Full->factor()), 0.0);
  EXPECT_EQ(Grown->logDeterminant(), Full->logDeterminant());
}

TEST(CholeskyTest, RepeatedExtendGrowsFromScalar) {
  Rng R(32);
  const size_t N = 25;
  Matrix A = randomSpd(N, R);
  auto Full = Cholesky::factorize(A);
  ASSERT_TRUE(Full.has_value());

  Matrix First(1, 1);
  First.at(0, 0) = A.at(0, 0);
  auto Grown = Cholesky::factorize(First);
  ASSERT_TRUE(Grown.has_value());
  for (size_t M = 1; M != N; ++M) {
    std::vector<double> Border(M);
    for (size_t I = 0; I != M; ++I)
      Border[I] = A.at(M, I);
    ASSERT_TRUE(Grown->extend(Border, A.at(M, M))) << "at size " << M;
  }
  EXPECT_EQ(Grown->factor().maxAbsDiff(Full->factor()), 0.0);
}

TEST(CholeskyTest, ExtendRejectsNonPdBorderAndKeepsFactor) {
  Matrix A(1, 1);
  A.at(0, 0) = 1.0;
  auto F = Cholesky::factorize(A);
  ASSERT_TRUE(F.has_value());
  // Bordered matrix [[1, 2], [2, 1]] has eigenvalues 3 and -1.
  EXPECT_FALSE(F->extend({2.0}, 1.0));
  EXPECT_EQ(F->size(), 1u);
  EXPECT_NEAR(F->factor().at(0, 0), 1.0, 0.0);
  // The untouched factor still solves the original system.
  std::vector<double> X = F->solve({3.0});
  EXPECT_NEAR(X[0], 3.0, 1e-14);
}

TEST(CholeskyTest, FactorizeBitIdenticalToScalarReference) {
  // N = 200 spans several diagonal panels, so the blocked schedule (not
  // just the first panel) is exercised against the classic scalar loop.
  Rng R(41);
  const size_t N = 200;
  Matrix A = randomSpd(N, R);
  auto F = Cholesky::factorize(A);
  ASSERT_TRUE(F.has_value());
  EXPECT_EQ(F->factor().maxAbsDiff(scalarCholeskyReference(A)), 0.0);
}

TEST(CholeskyTest, BlockedFactorizeBitIdenticalAcrossWorkersAndStealSeeds) {
  Rng R(42);
  const size_t N = 200;
  Matrix A = randomSpd(N, R);
  auto Sequential = Cholesky::factorize(A, nullptr);
  ASSERT_TRUE(Sequential.has_value());
  for (unsigned Threads : {1u, 8u}) {
    for (uint64_t StealSeed : {0x5eedull, 0xabcdefull}) {
      Scheduler::Options Opts;
      Opts.Threads = Threads;
      Opts.StealSeed = StealSeed;
      Opts.JitterSeed = hashCombine({StealSeed, 0x11ffull});
      Scheduler Pool(Opts);
      auto Forked = Cholesky::factorize(A, &Pool);
      ASSERT_TRUE(Forked.has_value());
      // The packed buffers must agree bit for bit, not within tolerance.
      EXPECT_EQ(Forked->packed(), Sequential->packed())
          << Threads << " workers, steal seed " << StealSeed;
    }
  }
}

TEST(CholeskyTest, SolveManyBitIdenticalToIndependentSolves) {
  Rng R(43);
  const size_t N = 57; // not a multiple of any internal block size
  const size_t NumRhs = 9;
  Matrix A = randomSpd(N, R);
  auto F = Cholesky::factorize(A);
  ASSERT_TRUE(F.has_value());
  std::vector<double> Rhs(NumRhs * N);
  for (double &V : Rhs)
    V = R.nextGaussian();

  std::vector<double> Lower = Rhs;
  std::vector<double *> Ptrs;
  for (size_t I = 0; I != NumRhs; ++I)
    Ptrs.push_back(Lower.data() + I * N);
  F->solveLowerManyInPlace(Ptrs.data(), nullptr, NumRhs);
  for (size_t I = 0; I != NumRhs; ++I) {
    std::vector<double> B(Rhs.begin() + I * N, Rhs.begin() + (I + 1) * N);
    std::vector<double> Y = F->solveLower(B);
    for (size_t J = 0; J != N; ++J)
      EXPECT_EQ(Lower[I * N + J], Y[J]) << "rhs " << I << " entry " << J;
  }
}

TEST(CholeskyTest, SolveLowerForwardSubstitution) {
  Matrix A(2, 2);
  A.at(0, 0) = 4.0;
  A.at(1, 1) = 9.0;
  auto F = Cholesky::factorize(A);
  ASSERT_TRUE(F.has_value());
  // L = diag(2, 3); L y = (2, 6) => y = (1, 2).
  std::vector<double> Y = F->solveLower({2.0, 6.0});
  EXPECT_NEAR(Y[0], 1.0, 1e-14);
  EXPECT_NEAR(Y[1], 2.0, 1e-14);
}

TEST(CholeskyTest, StartRowSolveExtendsPrefixFromGrownFactor) {
  // Right-hand sides solved against a leading factor, whose factor then
  // grows by extend(), resume from their start rows and must equal full
  // solves against the grown factor bit for bit.
  Rng R(44);
  const size_t N = 61, Lead = 37;
  Matrix A = randomSpd(N, R);
  Matrix Small(Lead, Lead);
  for (size_t I = 0; I != Lead; ++I)
    for (size_t J = 0; J != Lead; ++J)
      Small.at(I, J) = A.at(I, J);
  auto F = Cholesky::factorize(Small);
  ASSERT_TRUE(F.has_value());

  // Right-hand sides 0 and 1 are solved on the leading factor; 2 stays
  // unsolved (start 0); 3 is solved in full after the growth (start N).
  const size_t NumRhs = 4;
  std::vector<std::vector<double>> B(NumRhs, std::vector<double>(N));
  for (auto &Rhs : B)
    for (double &V : Rhs)
      V = R.nextGaussian();
  std::vector<std::vector<double>> Work = B;
  std::vector<double *> Ptrs;
  for (auto &Rhs : Work)
    Ptrs.push_back(Rhs.data());
  F->solveLowerManyInPlace(Ptrs.data(), nullptr, 2);

  for (size_t M = Lead; M != N; ++M) {
    std::vector<double> Border(M);
    for (size_t I = 0; I != M; ++I)
      Border[I] = A.at(M, I);
    ASSERT_TRUE(F->extend(Border, A.at(M, M)));
  }
  F->solveLowerInPlace(Ptrs[3]);
  std::vector<double> Solved3 = Work[3];
  std::vector<size_t> Start = {Lead, Lead, 0, N};
  F->solveLowerManyInPlace(Ptrs.data(), Start.data(), NumRhs);

  auto Full = Cholesky::factorize(A);
  ASSERT_TRUE(Full.has_value());
  for (size_t K = 0; K != NumRhs; ++K) {
    std::vector<double> Want = Full->solveLower(B[K]);
    for (size_t I = 0; I != N; ++I)
      EXPECT_EQ(Work[K][I], Want[I]) << "rhs " << K << " entry " << I;
  }
  EXPECT_EQ(Work[3], Solved3);
}
