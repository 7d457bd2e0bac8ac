//===- spapt/Kernels.cpp --------------------------------------*- C++ -*-===//
//
// IR builders for the eleven SPAPT kernels.  Parameter ranges are sized so
// that each space's cardinality matches the paper's Table 1 (bench_paper_
// campaign's Table 1 prints both side by side); loop-bound parameters
// carry the LoopVarId they act on.
//
//===----------------------------------------------------------------------===//

#include "spapt/Kernels.h"

#include "support/Error.h"

#include <cassert>

using namespace alic;

namespace {

AffineExpr cst(int64_t V) { return AffineExpr::constant(V); }
AffineExpr vr(LoopVarId V) { return AffineExpr::var(V); }
AffineExpr vp(LoopVarId V, int64_t Off) {
  return AffineExpr::scaledVar(V, 1, Off);
}

ArrayAccess acc1(unsigned Arr, AffineExpr S0) {
  return ArrayAccess(Arr, {std::move(S0)});
}
ArrayAccess acc2(unsigned Arr, AffineExpr S0, AffineExpr S1) {
  return ArrayAccess(Arr, {std::move(S0), std::move(S1)});
}

std::unique_ptr<LoopNode> mkLoop(LoopVarId V, AffineExpr Lo, AffineExpr Hi) {
  return std::make_unique<LoopNode>(V, std::move(Lo), std::move(Hi), 1);
}

/// write (+)= c * prod(reads), for a constant c the IR does not keep
std::unique_ptr<StmtNode> prodStmt(ArrayAccess Write, bool Accumulate,
                                   std::vector<ArrayAccess> Reads) {
  std::vector<ReadTerm> Terms;
  Terms.reserve(Reads.size());
  for (ArrayAccess &R : Reads)
    Terms.push_back({std::move(R), 1.0});
  return std::make_unique<StmtNode>(std::move(Write), Accumulate,
                                    RhsKind::Product, std::move(Terms));
}

/// write (+)= sum(coeff_i * read_i)
std::unique_ptr<StmtNode>
sumStmt(ArrayAccess Write, bool Accumulate,
        std::vector<std::pair<ArrayAccess, double>> Reads) {
  std::vector<ReadTerm> Terms;
  Terms.reserve(Reads.size());
  for (auto &[R, C] : Reads)
    Terms.push_back({std::move(R), C});
  return std::make_unique<StmtNode>(std::move(Write), Accumulate, RhsKind::Sum,
                                    std::move(Terms));
}

/// Unroll factor 1..30 bound to \p Loop — SPAPT's standard unroll range.
Param unroll(const char *Name, LoopVarId Loop) {
  return Param::range(Name, ParamKind::Unroll, 1, 30, 1,
                      static_cast<int>(Loop));
}

/// Register-tile factor 1..30 bound to \p Loop.
Param regTile(const char *Name, LoopVarId Loop) {
  return Param::range(Name, ParamKind::RegisterTile, 1, 30, 1,
                      static_cast<int>(Loop));
}

/// Cache-tile sizes {1, Step, 2*Step, ...} with \p Count values in total.
Param cacheTile(const char *Name, LoopVarId Loop, int Step, int Count) {
  assert(Count >= 2 && "tile parameter needs at least two values");
  std::vector<int> Values;
  Values.reserve(static_cast<size_t>(Count));
  Values.push_back(1);
  for (int I = 1; I != Count; ++I)
    Values.push_back(I * Step);
  return Param::fromValues(Name, ParamKind::CacheTile, std::move(Values),
                           static_cast<int>(Loop));
}

} // namespace

KernelBundle alic::buildMm(int64_t N) {
  Kernel K("mm");
  unsigned A = K.addArray("A", {N, N});
  unsigned B = K.addArray("B", {N, N});
  unsigned C = K.addArray("C", {N, N});
  LoopVarId I1 = K.addLoopVar("i1");
  LoopVarId I2 = K.addLoopVar("i2");
  LoopVarId I3 = K.addLoopVar("i3");

  auto Li1 = mkLoop(I1, cst(0), cst(N));
  auto Li2 = mkLoop(I2, cst(0), cst(N));
  auto Li3 = mkLoop(I3, cst(0), cst(N));
  Li3->append(prodStmt(acc2(C, vr(I1), vr(I2)), /*Accumulate=*/true,
                       {acc2(A, vr(I1), vr(I3)), acc2(B, vr(I3), vr(I2))}));
  Li2->append(std::move(Li3));
  Li1->append(std::move(Li2));
  K.appendTopLevel(std::move(Li1));
  K.verify();

  std::vector<Param> Params;
  Params.push_back(unroll("U_i1", I1));
  Params.push_back(unroll("U_i2", I2));
  Params.push_back(unroll("U_i3", I3));
  Params.push_back(cacheTile("T_i1", I1, 4, 49));
  Params.push_back(cacheTile("T_i2", I2, 4, 49));
  Params.push_back(cacheTile("T_i3", I3, 4, 49));
  return KernelBundle(std::move(K), std::move(Params));
}

KernelBundle alic::buildMvt(int64_t N) {
  Kernel K("mvt");
  unsigned A = K.addArray("A", {N, N});
  unsigned X1 = K.addArray("x1", {N});
  unsigned Y1 = K.addArray("y1", {N});
  unsigned X2 = K.addArray("x2", {N});
  unsigned Y2 = K.addArray("y2", {N});
  LoopVarId I1 = K.addLoopVar("i1");
  LoopVarId I2 = K.addLoopVar("i2");
  LoopVarId I3 = K.addLoopVar("i3");
  LoopVarId I4 = K.addLoopVar("i4");

  auto Li1 = mkLoop(I1, cst(0), cst(N));
  auto Li2 = mkLoop(I2, cst(0), cst(N));
  Li2->append(prodStmt(acc1(X1, vr(I1)), true,
                       {acc2(A, vr(I1), vr(I2)), acc1(Y1, vr(I2))}));
  Li1->append(std::move(Li2));
  K.appendTopLevel(std::move(Li1));

  auto Li3 = mkLoop(I3, cst(0), cst(N));
  auto Li4 = mkLoop(I4, cst(0), cst(N));
  Li4->append(prodStmt(acc1(X2, vr(I3)), true,
                       {acc2(A, vr(I4), vr(I3)), acc1(Y2, vr(I4))}));
  Li3->append(std::move(Li4));
  K.appendTopLevel(std::move(Li3));
  K.verify();

  std::vector<Param> Params;
  Params.push_back(unroll("U_i1", I1));
  Params.push_back(unroll("U_i3", I3));
  Params.push_back(regTile("RT_i2", I2));
  Params.push_back(cacheTile("T_i2", I2, 8, 27));
  Params.push_back(cacheTile("T_i4", I4, 8, 27));
  return KernelBundle(std::move(K), std::move(Params));
}

KernelBundle alic::buildJacobi(int64_t N, int64_t T) {
  Kernel K("jacobi");
  unsigned A = K.addArray("A", {N, N});
  unsigned B = K.addArray("B", {N, N});
  LoopVarId Tv = K.addLoopVar("t");
  LoopVarId I1 = K.addLoopVar("i1");
  LoopVarId J1 = K.addLoopVar("j1");
  LoopVarId I2 = K.addLoopVar("i2");
  LoopVarId J2 = K.addLoopVar("j2");

  auto Lt = mkLoop(Tv, cst(0), cst(T));

  auto Li1 = mkLoop(I1, cst(1), cst(N - 1));
  auto Lj1 = mkLoop(J1, cst(1), cst(N - 1));
  Lj1->append(sumStmt(acc2(B, vr(I1), vr(J1)), false,
                      {{acc2(A, vr(I1), vr(J1)), 0.2},
                       {acc2(A, vp(I1, -1), vr(J1)), 0.2},
                       {acc2(A, vp(I1, 1), vr(J1)), 0.2},
                       {acc2(A, vr(I1), vp(J1, -1)), 0.2},
                       {acc2(A, vr(I1), vp(J1, 1)), 0.2}}));
  Li1->append(std::move(Lj1));
  Lt->append(std::move(Li1));

  auto Li2 = mkLoop(I2, cst(1), cst(N - 1));
  auto Lj2 = mkLoop(J2, cst(1), cst(N - 1));
  Lj2->append(
      sumStmt(acc2(A, vr(I2), vr(J2)), false, {{acc2(B, vr(I2), vr(J2)), 1.0}}));
  Li2->append(std::move(Lj2));
  Lt->append(std::move(Li2));

  K.appendTopLevel(std::move(Lt));
  K.verify();

  std::vector<Param> Params;
  Params.push_back(unroll("U_j1", J1));
  Params.push_back(unroll("U_j2", J2));
  Params.push_back(regTile("RT_i1", I1));
  Params.push_back(cacheTile("T_i1", I1, 8, 27));
  Params.push_back(cacheTile("T_j1", J1, 8, 27));
  return KernelBundle(std::move(K), std::move(Params));
}

KernelBundle alic::buildHessian(int64_t N) {
  Kernel K("hessian");
  unsigned F = K.addArray("f", {N, N});
  unsigned H = K.addArray("H", {N, N});
  unsigned G = K.addArray("g", {N, N});
  LoopVarId I1 = K.addLoopVar("i1");
  LoopVarId J1 = K.addLoopVar("j1");

  auto Li1 = mkLoop(I1, cst(1), cst(N - 1));
  auto Lj1 = mkLoop(J1, cst(1), cst(N - 1));
  // Second differences in both directions (a discrete Hessian trace).
  Lj1->append(sumStmt(acc2(H, vr(I1), vr(J1)), false,
                      {{acc2(F, vp(I1, 1), vr(J1)), 1.0},
                       {acc2(F, vp(I1, -1), vr(J1)), 1.0},
                       {acc2(F, vr(I1), vp(J1, 1)), 1.0},
                       {acc2(F, vr(I1), vp(J1, -1)), 1.0},
                       {acc2(F, vr(I1), vr(J1)), -4.0}}));
  Lj1->append(prodStmt(acc2(G, vr(I1), vr(J1)), false,
                       {acc2(H, vr(I1), vr(J1)), acc2(F, vr(I1), vr(J1))}));
  Li1->append(std::move(Lj1));
  K.appendTopLevel(std::move(Li1));
  K.verify();

  std::vector<Param> Params;
  Params.push_back(unroll("U_i1", I1));
  Params.push_back(unroll("U_j1", J1));
  Params.push_back(regTile("RT_j1", J1));
  Params.push_back(cacheTile("T_i1", I1, 8, 27));
  Params.push_back(cacheTile("T_j1", J1, 8, 27));
  return KernelBundle(std::move(K), std::move(Params));
}

KernelBundle alic::buildLu(int64_t N) {
  Kernel K("lu");
  unsigned A = K.addArray("A", {N, N});
  LoopVarId Kv = K.addLoopVar("k");
  LoopVarId I1 = K.addLoopVar("i1");
  LoopVarId I2 = K.addLoopVar("i2");
  LoopVarId J2 = K.addLoopVar("j2");

  auto Lk = mkLoop(Kv, cst(0), cst(N - 1));

  // Column scaling: A[i][k] *= A[k][k] (stand-in for the pivot division).
  auto Li1 = mkLoop(I1, vp(Kv, 1), cst(N));
  {
    auto Scale = prodStmt(acc2(A, vr(I1), vr(Kv)), false,
                          {acc2(A, vr(I1), vr(Kv)), acc2(A, vr(Kv), vr(Kv))});
    static_cast<StmtNode *>(Scale.get())->HasDivision = true;
    Li1->append(std::move(Scale));
  }
  Lk->append(std::move(Li1));

  // Trailing submatrix update: A[i][j] -= A[i][k] * A[k][j].
  auto Li2 = mkLoop(I2, vp(Kv, 1), cst(N));
  auto Lj2 = mkLoop(J2, vp(Kv, 1), cst(N));
  Lj2->append(prodStmt(acc2(A, vr(I2), vr(J2)), true,
                       {acc2(A, vr(I2), vr(Kv)), acc2(A, vr(Kv), vr(J2))}));
  Li2->append(std::move(Lj2));
  Lk->append(std::move(Li2));

  K.appendTopLevel(std::move(Lk));
  K.verify();

  std::vector<Param> Params;
  Params.push_back(unroll("U_i2", I2));
  Params.push_back(unroll("U_j2", J2));
  Params.push_back(regTile("RT_i2", I2));
  Params.push_back(regTile("RT_j2", J2));
  Params.push_back(cacheTile("T_i2", I2, 16, 24));
  Params.push_back(cacheTile("T_j2", J2, 8, 30));
  return KernelBundle(std::move(K), std::move(Params));
}

KernelBundle alic::buildBicgkernel(int64_t N) {
  Kernel K("bicgkernel");
  unsigned A = K.addArray("A", {N, N});
  unsigned P = K.addArray("p", {N});
  unsigned Q = K.addArray("q", {N});
  unsigned R = K.addArray("r", {N});
  unsigned S = K.addArray("s", {N});
  LoopVarId I1 = K.addLoopVar("i1");
  LoopVarId J1 = K.addLoopVar("j1");

  auto Li1 = mkLoop(I1, cst(0), cst(N));
  auto Lj1 = mkLoop(J1, cst(0), cst(N));
  Lj1->append(prodStmt(acc1(Q, vr(I1)), true,
                       {acc2(A, vr(I1), vr(J1)), acc1(P, vr(J1))}));
  Lj1->append(prodStmt(acc1(S, vr(J1)), true,
                       {acc1(R, vr(I1)), acc2(A, vr(I1), vr(J1))}));
  Li1->append(std::move(Lj1));
  K.appendTopLevel(std::move(Li1));
  K.verify();

  std::vector<Param> Params;
  Params.push_back(unroll("U_i1", I1));
  Params.push_back(unroll("U_j1", J1));
  Params.push_back(regTile("RT_i1", I1));
  Params.push_back(regTile("RT_j1", J1));
  Params.push_back(cacheTile("T_i1", I1, 16, 24));
  Params.push_back(cacheTile("T_j1", J1, 8, 30));
  return KernelBundle(std::move(K), std::move(Params));
}

KernelBundle alic::buildAtax(int64_t N) {
  Kernel K("atax");
  unsigned A = K.addArray("A", {N, N});
  unsigned X = K.addArray("x", {N});
  unsigned Y = K.addArray("y", {N});
  unsigned Tmp = K.addArray("tmp", {N});
  LoopVarId I1 = K.addLoopVar("i1");
  LoopVarId J1 = K.addLoopVar("j1");
  LoopVarId I2 = K.addLoopVar("i2");
  LoopVarId J2 = K.addLoopVar("j2");

  auto Li1 = mkLoop(I1, cst(0), cst(N));
  auto Lj1 = mkLoop(J1, cst(0), cst(N));
  Lj1->append(prodStmt(acc1(Tmp, vr(I1)), true,
                       {acc2(A, vr(I1), vr(J1)), acc1(X, vr(J1))}));
  Li1->append(std::move(Lj1));
  K.appendTopLevel(std::move(Li1));

  auto Li2 = mkLoop(I2, cst(0), cst(N));
  auto Lj2 = mkLoop(J2, cst(0), cst(N));
  Lj2->append(prodStmt(acc1(Y, vr(J2)), true,
                       {acc2(A, vr(I2), vr(J2)), acc1(Tmp, vr(I2))}));
  Li2->append(std::move(Lj2));
  K.appendTopLevel(std::move(Li2));
  K.verify();

  std::vector<Param> Params;
  Params.push_back(unroll("U_i1", I1));
  Params.push_back(unroll("U_j1", J1));
  Params.push_back(unroll("U_i2", I2));
  Params.push_back(unroll("U_j2", J2));
  Params.push_back(cacheTile("T_i1", I1, 4, 43));
  Params.push_back(cacheTile("T_j1", J1, 4, 42));
  Params.push_back(cacheTile("T_i2", I2, 4, 42));
  Params.push_back(cacheTile("T_j2", J2, 4, 42));
  return KernelBundle(std::move(K), std::move(Params));
}

KernelBundle alic::buildAdi(int64_t N, int64_t T) {
  Kernel K("adi");
  unsigned X = K.addArray("X", {N, N});
  unsigned A = K.addArray("A", {N, N});
  unsigned B = K.addArray("B", {N, N});
  LoopVarId Tv = K.addLoopVar("t");
  LoopVarId I1 = K.addLoopVar("i1");
  LoopVarId J1 = K.addLoopVar("j1");
  LoopVarId I2 = K.addLoopVar("i2");
  LoopVarId J2 = K.addLoopVar("j2");
  LoopVarId I3 = K.addLoopVar("i3");
  LoopVarId J3 = K.addLoopVar("j3");
  LoopVarId I4 = K.addLoopVar("i4");
  LoopVarId J4 = K.addLoopVar("j4");

  auto Lt = mkLoop(Tv, cst(0), cst(T));

  // Row sweep: recurrence along j.
  auto Li1 = mkLoop(I1, cst(0), cst(N));
  auto Lj1 = mkLoop(J1, cst(1), cst(N));
  {
    auto Sweep = prodStmt(
        acc2(X, vr(I1), vr(J1)), true,
        {acc2(X, vr(I1), vp(J1, -1)), acc2(A, vr(I1), vr(J1))});
    static_cast<StmtNode *>(Sweep.get())->HasDivision = true;
    Lj1->append(std::move(Sweep));
  }
  Li1->append(std::move(Lj1));
  Lt->append(std::move(Li1));

  // Row normalization-ish pass.
  auto Li2 = mkLoop(I2, cst(0), cst(N));
  auto Lj2 = mkLoop(J2, cst(0), cst(N));
  Lj2->append(prodStmt(acc2(B, vr(I2), vr(J2)), true,
                       {acc2(X, vr(I2), vr(J2)), acc2(A, vr(I2), vr(J2))}));
  Li2->append(std::move(Lj2));
  Lt->append(std::move(Li2));

  // Column sweep: recurrence along i.
  auto Li3 = mkLoop(I3, cst(1), cst(N));
  auto Lj3 = mkLoop(J3, cst(0), cst(N));
  {
    auto Sweep = prodStmt(
        acc2(X, vr(I3), vr(J3)), true,
        {acc2(X, vp(I3, -1), vr(J3)), acc2(A, vr(I3), vr(J3))});
    static_cast<StmtNode *>(Sweep.get())->HasDivision = true;
    Lj3->append(std::move(Sweep));
  }
  Li3->append(std::move(Lj3));
  Lt->append(std::move(Li3));

  // Column combine pass.
  auto Li4 = mkLoop(I4, cst(1), cst(N));
  auto Lj4 = mkLoop(J4, cst(0), cst(N));
  Lj4->append(prodStmt(acc2(B, vr(I4), vr(J4)), true,
                       {acc2(X, vr(I4), vr(J4)), acc2(B, vp(I4, -1), vr(J4))}));
  Li4->append(std::move(Lj4));
  Lt->append(std::move(Li4));

  K.appendTopLevel(std::move(Lt));
  K.verify();

  std::vector<Param> Params;
  Params.push_back(unroll("U_i1", I1));
  Params.push_back(unroll("U_j1", J1));
  Params.push_back(unroll("U_i2", I2));
  Params.push_back(unroll("U_j2", J2));
  Params.push_back(unroll("U_i3", I3));
  Params.push_back(unroll("U_j3", J3));
  Params.push_back(unroll("U_i4", I4));
  Params.push_back(unroll("U_j4", J4));
  Params.push_back(cacheTile("T_i2", I2, 8, 24));
  Params.push_back(cacheTile("T_j4", J4, 8, 24));
  return KernelBundle(std::move(K), std::move(Params));
}

KernelBundle alic::buildCorrelation(int64_t M, int64_t N) {
  Kernel K("correlation");
  unsigned Data = K.addArray("data", {M, N});
  unsigned Mean = K.addArray("mean", {N});
  unsigned Stddev = K.addArray("stddev", {N});
  unsigned Corr = K.addArray("corr", {N, N});
  LoopVarId J1 = K.addLoopVar("j1");
  LoopVarId I1 = K.addLoopVar("i1");
  LoopVarId J2 = K.addLoopVar("j2");
  LoopVarId I2 = K.addLoopVar("i2");
  LoopVarId I3 = K.addLoopVar("i3");
  LoopVarId J3 = K.addLoopVar("j3");
  LoopVarId J4 = K.addLoopVar("j4");
  LoopVarId J5 = K.addLoopVar("j5");
  LoopVarId I4 = K.addLoopVar("i4");

  // Column means.
  auto Lj1 = mkLoop(J1, cst(0), cst(N));
  auto Li1 = mkLoop(I1, cst(0), cst(M));
  Li1->append(sumStmt(acc1(Mean, vr(J1)), true,
                      {{acc2(Data, vr(I1), vr(J1)), 1.0 / double(M)}}));
  Lj1->append(std::move(Li1));
  K.appendTopLevel(std::move(Lj1));

  // Column second moments.
  auto Lj2 = mkLoop(J2, cst(0), cst(N));
  auto Li2 = mkLoop(I2, cst(0), cst(M));
  Li2->append(
      prodStmt(acc1(Stddev, vr(J2)), true,
               {acc2(Data, vr(I2), vr(J2)), acc2(Data, vr(I2), vr(J2))}));
  Lj2->append(std::move(Li2));
  K.appendTopLevel(std::move(Lj2));

  // Centring.
  auto Li3 = mkLoop(I3, cst(0), cst(M));
  auto Lj3 = mkLoop(J3, cst(0), cst(N));
  Lj3->append(
      sumStmt(acc2(Data, vr(I3), vr(J3)), true, {{acc1(Mean, vr(J3)), -1.0}}));
  Li3->append(std::move(Lj3));
  K.appendTopLevel(std::move(Li3));

  // Cross products.
  auto Lj4 = mkLoop(J4, cst(0), cst(N));
  auto Lj5 = mkLoop(J5, cst(0), cst(N));
  auto Li4 = mkLoop(I4, cst(0), cst(M));
  Li4->append(
      prodStmt(acc2(Corr, vr(J4), vr(J5)), true,
               {acc2(Data, vr(I4), vr(J4)), acc2(Data, vr(I4), vr(J5))}));
  Lj5->append(std::move(Li4));
  Lj4->append(std::move(Lj5));
  K.appendTopLevel(std::move(Lj4));
  K.verify();

  std::vector<Param> Params;
  Params.push_back(unroll("U_i1", I1));
  Params.push_back(unroll("U_j2", J2));
  Params.push_back(unroll("U_i2", I2));
  Params.push_back(unroll("U_i3", I3));
  Params.push_back(unroll("U_j3", J3));
  Params.push_back(unroll("U_j4", J4));
  Params.push_back(unroll("U_j5", J5));
  Params.push_back(unroll("U_i4", I4));
  Params.push_back(cacheTile("T_j5", J5, 8, 24));
  Params.push_back(cacheTile("T_i4", I4, 8, 24));
  return KernelBundle(std::move(K), std::move(Params));
}

KernelBundle alic::buildGemver(int64_t N) {
  Kernel K("gemver");
  unsigned A = K.addArray("A", {N, N});
  unsigned U1 = K.addArray("u1", {N});
  unsigned V1 = K.addArray("v1", {N});
  unsigned U2 = K.addArray("u2", {N});
  unsigned V2 = K.addArray("v2", {N});
  unsigned Xv = K.addArray("x", {N});
  unsigned Yv = K.addArray("y", {N});
  unsigned Zv = K.addArray("z", {N});
  unsigned Wv = K.addArray("w", {N});
  LoopVarId I1 = K.addLoopVar("i1");
  LoopVarId J1 = K.addLoopVar("j1");
  LoopVarId I2 = K.addLoopVar("i2");
  LoopVarId J2 = K.addLoopVar("j2");
  LoopVarId I3 = K.addLoopVar("i3");
  LoopVarId I4 = K.addLoopVar("i4");
  LoopVarId J4 = K.addLoopVar("j4");

  // A-hat = A + u1 v1^T + u2 v2^T.
  auto Li1 = mkLoop(I1, cst(0), cst(N));
  auto Lj1 = mkLoop(J1, cst(0), cst(N));
  Lj1->append(prodStmt(acc2(A, vr(I1), vr(J1)), true,
                       {acc1(U1, vr(I1)), acc1(V1, vr(J1))}));
  Lj1->append(prodStmt(acc2(A, vr(I1), vr(J1)), true,
                       {acc1(U2, vr(I1)), acc1(V2, vr(J1))}));
  Li1->append(std::move(Lj1));
  K.appendTopLevel(std::move(Li1));

  // x += beta * A^T y.
  auto Li2 = mkLoop(I2, cst(0), cst(N));
  auto Lj2 = mkLoop(J2, cst(0), cst(N));
  Lj2->append(prodStmt(acc1(Xv, vr(I2)), true,
                       {acc2(A, vr(J2), vr(I2)), acc1(Yv, vr(J2))}));
  Li2->append(std::move(Lj2));
  K.appendTopLevel(std::move(Li2));

  // x += z.
  auto Li3 = mkLoop(I3, cst(0), cst(N));
  Li3->append(sumStmt(acc1(Xv, vr(I3)), true, {{acc1(Zv, vr(I3)), 1.0}}));
  K.appendTopLevel(std::move(Li3));

  // w += alpha * A x.
  auto Li4 = mkLoop(I4, cst(0), cst(N));
  auto Lj4 = mkLoop(J4, cst(0), cst(N));
  Lj4->append(prodStmt(acc1(Wv, vr(I4)), true,
                       {acc2(A, vr(I4), vr(J4)), acc1(Xv, vr(J4))}));
  Li4->append(std::move(Lj4));
  K.appendTopLevel(std::move(Li4));
  K.verify();

  std::vector<Param> Params;
  Params.push_back(unroll("U_i1", I1));
  Params.push_back(unroll("U_j1", J1));
  Params.push_back(unroll("U_i2", I2));
  Params.push_back(unroll("U_j2", J2));
  Params.push_back(unroll("U_i3", I3));
  Params.push_back(unroll("U_i4", I4));
  Params.push_back(unroll("U_j4", J4));
  Params.push_back(regTile("RT_j2", J2));
  Params.push_back(regTile("RT_j4", J4));
  Params.push_back(cacheTile("T_j1", J1, 8, 24));
  Params.push_back(cacheTile("T_j2", J2, 8, 24));
  return KernelBundle(std::move(K), std::move(Params));
}

KernelBundle alic::buildDgemv3(int64_t N) {
  Kernel K("dgemv3");
  unsigned A = K.addArray("A", {N, N});
  unsigned B = K.addArray("B", {N, N});
  unsigned C = K.addArray("C", {N, N});
  unsigned X1 = K.addArray("x1", {N});
  unsigned X2 = K.addArray("x2", {N});
  unsigned X3 = K.addArray("x3", {N});
  unsigned Y1 = K.addArray("y1", {N});
  unsigned Y2 = K.addArray("y2", {N});
  unsigned Y3 = K.addArray("y3", {N});
  LoopVarId I1 = K.addLoopVar("i1");
  LoopVarId J1 = K.addLoopVar("j1");
  LoopVarId I2 = K.addLoopVar("i2");
  LoopVarId J2 = K.addLoopVar("j2");
  LoopVarId I3 = K.addLoopVar("i3");
  LoopVarId J3 = K.addLoopVar("j3");
  LoopVarId I4 = K.addLoopVar("i4");
  LoopVarId I5 = K.addLoopVar("i5");
  LoopVarId I6 = K.addLoopVar("i6");

  auto addMatvec = [&](LoopVarId Iv, LoopVarId Jv, unsigned Mat, unsigned Out,
                       unsigned In) {
    auto Li = mkLoop(Iv, cst(0), cst(N));
    auto Lj = mkLoop(Jv, cst(0), cst(N));
    Lj->append(prodStmt(acc1(Out, vr(Iv)), true,
                        {acc2(Mat, vr(Iv), vr(Jv)), acc1(In, vr(Jv))}));
    Li->append(std::move(Lj));
    K.appendTopLevel(std::move(Li));
  };
  addMatvec(I1, J1, A, Y1, X1);
  addMatvec(I2, J2, B, Y2, Y1);
  addMatvec(I3, J3, C, Y3, Y2);

  auto addAxpy = [&](LoopVarId Iv, unsigned Out, unsigned In, double Coeff) {
    auto Li = mkLoop(Iv, cst(0), cst(N));
    Li->append(sumStmt(acc1(Out, vr(Iv)), true, {{acc1(In, vr(Iv)), Coeff}}));
    K.appendTopLevel(std::move(Li));
  };
  addAxpy(I4, Y1, X2, 0.3);
  addAxpy(I5, Y2, X3, 0.5);
  addAxpy(I6, Y3, Y1, 0.25);
  K.verify();

  std::vector<Param> Params;
  Params.push_back(unroll("U_i1", I1));
  Params.push_back(unroll("U_j1", J1));
  Params.push_back(unroll("U_i2", I2));
  Params.push_back(unroll("U_j2", J2));
  Params.push_back(unroll("U_i3", I3));
  Params.push_back(unroll("U_j3", J3));
  Params.push_back(unroll("U_i4", I4));
  Params.push_back(unroll("U_i5", I5));
  Params.push_back(unroll("U_i6", I6));
  Params.push_back(regTile("RT_i1", I1));
  Params.push_back(regTile("RT_j1", J1));
  Params.push_back(regTile("RT_i2", I2));
  Params.push_back(regTile("RT_j2", J2));
  Params.push_back(regTile("RT_i3", I3));
  Params.push_back(regTile("RT_j3", J3));
  Params.push_back(regTile("RT_i4", I4));
  Params.push_back(regTile("RT_i5", I5));
  Params.push_back(cacheTile("T_j1", J1, 2, 103));
  return KernelBundle(std::move(K), std::move(Params));
}
