//===- machine/CostModel.h - Analytic performance model -------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The deterministic ground-truth runtime model standing in for the
/// paper's physical testbed (see docs/ARCHITECTURE.md).  It prices a
/// (kernel, transformation plan) pair analytically — no transformed code
/// is ever built — and predicts:
///
///  * compute cycles — flop throughput limited by dependency chains that
///    unrolling/register tiling break up;
///  * loop overhead  — branch/increment cost amortized by unrolling and
///    inflated by tiny tiles (partial-tile rounding included);
///  * register spills — unroll-and-jam register pressure beyond the
///    register file;
///  * memory cycles  — a classic footprint/reuse-distance cache model: for
///    every access, the deepest loop that re-touches the same data defines
///    a reuse volume, and the smallest cache level that holds it serves
///    the access's line misses;
///  * front-end stalls — saturating penalty once the unrolled body
///    overflows the instruction cache (this produces the climb-and-plateau
///    shape of the paper's Figure 2);
///  * compile time   — grows with post-expansion code size, matching how
///    gcc slows down on heavily unrolled SPAPT kernels.
///
/// The model assumes the cache-tile band is interchanged into position
/// (as Orio's tiling does); it is the performance authority.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_MACHINE_COSTMODEL_H
#define ALIC_MACHINE_COSTMODEL_H

#include "ir/Kernel.h"
#include "machine/MachineDesc.h"
#include "transform/TransformPlan.h"

namespace alic {

/// Cost-model output with a per-component breakdown (cycles).
struct CostBreakdown {
  double RuntimeSeconds = 0.0;
  double CompileSeconds = 0.0;
  double ComputeCycles = 0.0;
  double LoopOverheadCycles = 0.0;
  double SpillCycles = 0.0;
  double MemoryCycles = 0.0;
  double FrontEndCycles = 0.0;
  double CodeStmts = 0.0; ///< statements after unroll expansion
  double TotalCycles = 0.0;
};

/// Analytic cost model over the kernel IR.
class CostModel {
public:
  explicit CostModel(MachineDesc Desc = MachineDesc::i7Haswell())
      : Desc(Desc) {}

  /// Evaluates the kernel under \p Plan.
  CostBreakdown evaluate(const Kernel &K, const TransformPlan &Plan) const;

  /// Convenience: runtime seconds only.
  double runtimeSeconds(const Kernel &K, const TransformPlan &Plan) const {
    return evaluate(K, Plan).RuntimeSeconds;
  }

  const MachineDesc &machine() const { return Desc; }

private:
  MachineDesc Desc;
};

} // namespace alic

#endif // ALIC_MACHINE_COSTMODEL_H
