//===- transform/TransformPlan.h - Per-loop optimization plan -*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A TransformPlan assigns unroll / cache-tile / register-tile factors to
/// the loops of one kernel.  It is the bridge between the tunable space
/// (what the learner manipulates) and the analytic machine model, which
/// prices the (kernel, plan) pair directly.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_TRANSFORM_TRANSFORMPLAN_H
#define ALIC_TRANSFORM_TRANSFORMPLAN_H

#include "ir/AffineExpr.h"
#include "tunable/ParamSpace.h"

#include <map>

namespace alic {

/// Optimization factors for one loop.  A factor of 1 means "off".
struct LoopFactors {
  int Unroll = 1;
  int CacheTile = 1;
  int RegisterTile = 1;
};

/// Assignment of factors to loops.
class TransformPlan {
public:
  /// Builds the identity plan (all factors 1).
  TransformPlan() = default;

  /// Derives a plan from a configuration: each parameter is routed to its
  /// bound loop according to its ParamKind.
  static TransformPlan fromConfig(const ParamSpace &Space, const Config &C);

  /// Factors for loop \p Var (identity if never set).
  const LoopFactors &factors(LoopVarId Var) const;
  LoopFactors &factorsMut(LoopVarId Var) { return Factors[Var]; }

private:
  std::map<LoopVarId, LoopFactors> Factors;
};

} // namespace alic

#endif // ALIC_TRANSFORM_TRANSFORMPLAN_H
