//===- transform/TransformPlan.cpp ----------------------------*- C++ -*-===//

#include "transform/TransformPlan.h"

#include <cassert>

using namespace alic;

TransformPlan TransformPlan::fromConfig(const ParamSpace &Space,
                                        const Config &C) {
  assert(C.size() == Space.numParams() && "config arity mismatch");
  TransformPlan Plan;
  for (size_t I = 0; I != Space.numParams(); ++I) {
    const Param &P = Space.param(I);
    int Value = P.value(C[I]);
    switch (P.kind()) {
    case ParamKind::Unroll:
      assert(P.loopIndex() >= 0 && "unroll parameter without a loop");
      Plan.Factors[static_cast<LoopVarId>(P.loopIndex())].Unroll = Value;
      break;
    case ParamKind::CacheTile:
      assert(P.loopIndex() >= 0 && "tile parameter without a loop");
      Plan.Factors[static_cast<LoopVarId>(P.loopIndex())].CacheTile = Value;
      break;
    case ParamKind::RegisterTile:
      assert(P.loopIndex() >= 0 && "register-tile parameter without a loop");
      Plan.Factors[static_cast<LoopVarId>(P.loopIndex())].RegisterTile =
          Value;
      break;
    }
  }
  return Plan;
}

const LoopFactors &TransformPlan::factors(LoopVarId Var) const {
  static const LoopFactors Identity;
  auto It = Factors.find(Var);
  return It == Factors.end() ? Identity : It->second;
}
