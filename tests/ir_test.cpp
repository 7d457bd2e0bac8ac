//===- tests/ir_test.cpp - ir/ unit tests ---------------------*- C++ -*-===//

#include "ir/AffineExpr.h"
#include "ir/Kernel.h"
#include "spapt/Kernels.h"

#include <gtest/gtest.h>

#include <type_traits>

using namespace alic;

//===----------------------------------------------------------------------===//
// AffineExpr
//===----------------------------------------------------------------------===//

TEST(AffineExprTest, EvaluateBasics) {
  AffineExpr E = AffineExpr::scaledVar(0, 2, 5); // 2*v0 + 5
  EXPECT_EQ(E.evaluate({3}), 11);
  EXPECT_EQ(E.coefficient(0), 2);
  EXPECT_EQ(E.constantTerm(), 5);
  EXPECT_TRUE(E.references(0));
  EXPECT_FALSE(E.references(1));
}

//===----------------------------------------------------------------------===//
// Kernel structure
//===----------------------------------------------------------------------===//

TEST(KernelTest, MmStructure) {
  KernelBundle B = buildMm(8);
  EXPECT_EQ(B.K.name(), "mm");
  EXPECT_EQ(B.K.numArrays(), 3u);
  EXPECT_EQ(B.K.countLoops(), 3u);
  EXPECT_EQ(B.K.countStmts(), 1u);
  EXPECT_EQ(B.Params.size(), 6u);
}

TEST(KernelTest, KernelsAreMoveOnly) {
  static_assert(!std::is_copy_constructible_v<Kernel>);
  static_assert(std::is_move_constructible_v<Kernel>);
  KernelBundle B = buildMm(8);
  Kernel Moved(std::move(B.K));
  EXPECT_EQ(Moved.name(), "mm");
  EXPECT_EQ(Moved.countLoops(), 3u);
}

TEST(KernelTest, StmtFlopsCounting) {
  KernelBundle B = buildMm(4);
  B.K.forEachStmt([](const StmtNode &S) {
    // C += A*B: one multiply + one accumulate add.
    EXPECT_EQ(S.flops(), 3u);
  });
}

//===----------------------------------------------------------------------===//
// Verification
//===----------------------------------------------------------------------===//

TEST(KernelVerifyTest, AllSpaptKernelsVerify) {
  // Builders call verify(); this re-checks mini instances explicitly.
  buildMm(8).K.verify();
  buildMvt(8).K.verify();
  buildJacobi(8, 2).K.verify();
  buildHessian(8).K.verify();
  buildLu(8).K.verify();
  buildBicgkernel(8).K.verify();
  buildAtax(8).K.verify();
  buildAdi(8, 2).K.verify();
  buildCorrelation(8, 6).K.verify();
  buildGemver(8).K.verify();
  buildDgemv3(8).K.verify();
  SUCCEED();
}

TEST(KernelVerifyTest, VerifierRejectsOutOfScopeVariable) {
  Kernel K("bad");
  unsigned A = K.addArray("A", {4});
  LoopVarId I = K.addLoopVar("i");
  LoopVarId J = K.addLoopVar("j"); // never declared by a loop
  auto L = std::make_unique<LoopNode>(I, AffineExpr::constant(0),
                                      AffineExpr::constant(4));
  std::vector<ReadTerm> Reads;
  Reads.push_back({ArrayAccess(A, {AffineExpr::var(J)}), 1.0});
  L->append(std::make_unique<StmtNode>(ArrayAccess(A, {AffineExpr::var(I)}),
                                       false, RhsKind::Sum, std::move(Reads)));
  K.appendTopLevel(std::move(L));
  EXPECT_DEATH(K.verify(), "out-of-scope");
}
