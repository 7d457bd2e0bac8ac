//===- spapt/Kernels.h - The eleven SPAPT kernel builders -----*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// IR builders for the eleven SPAPT search problems the paper evaluates
/// (Table 1): adi, atax, bicgkernel, correlation, dgemv3, gemver, hessian,
/// jacobi, lu, mm, mvt.  Each builder returns the kernel's loop nests plus
/// the tunable parameters bound to its loops; the parameter ranges are
/// chosen so the space cardinalities match Table 1 of the paper
/// (bench_paper_campaign's Table 1 prints the exact values side by side).
///
/// Builders take explicit problem dimensions: Suite.cpp instantiates the
/// full-size spaces, while the tests build miniature instances (the
/// kernels' structure does not depend on the dimensions).
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SPAPT_KERNELS_H
#define ALIC_SPAPT_KERNELS_H

#include "ir/Kernel.h"
#include "tunable/ParamSpace.h"

#include <cstdint>

namespace alic {

/// A kernel together with the tunable parameters bound to its loops.
struct KernelBundle {
  Kernel K;
  std::vector<Param> Params;

  KernelBundle(Kernel K, std::vector<Param> Params)
      : K(std::move(K)), Params(std::move(Params)) {}
};

/// Dense matrix multiplication C += A * B (N x N).
KernelBundle buildMm(int64_t N);

/// Matrix-vector products x1 += A y1 and x2 += A^T y2.
KernelBundle buildMvt(int64_t N);

/// 2D Jacobi 5-point stencil with explicit copy-back, T timesteps.
KernelBundle buildJacobi(int64_t N, int64_t T);

/// Hessian-like 2D second-difference stencil.
KernelBundle buildHessian(int64_t N);

/// LU decomposition (right-looking, no pivoting).
KernelBundle buildLu(int64_t N);

/// BiCG kernel: q += A p and s += A^T r fused in one sweep.
KernelBundle buildBicgkernel(int64_t N);

/// atax: y = A^T (A x) via an explicit temporary.
KernelBundle buildAtax(int64_t N);

/// ADI-style alternating row/column sweeps, T timesteps.
KernelBundle buildAdi(int64_t N, int64_t T);

/// Correlation matrix: column means, centring, cross products.
KernelBundle buildCorrelation(int64_t M, int64_t N);

/// gemver composite BLAS-2 sequence.
KernelBundle buildGemver(int64_t N);

/// dgemv3: three chained matrix-vector products with vector updates.
KernelBundle buildDgemv3(int64_t N);

} // namespace alic

#endif // ALIC_SPAPT_KERNELS_H
