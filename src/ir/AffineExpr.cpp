//===- ir/AffineExpr.cpp --------------------------------------*- C++ -*-===//

#include "ir/AffineExpr.h"

#include <cassert>

using namespace alic;

AffineExpr AffineExpr::constant(int64_t Value) {
  AffineExpr E;
  E.Constant = Value;
  return E;
}

AffineExpr AffineExpr::var(LoopVarId Var) { return scaledVar(Var, 1, 0); }

AffineExpr AffineExpr::scaledVar(LoopVarId Var, int64_t Coeff,
                                 int64_t Offset) {
  AffineExpr E;
  if (Coeff != 0)
    E.Terms.emplace_back(Var, Coeff);
  E.Constant = Offset;
  return E;
}

int64_t AffineExpr::coefficient(LoopVarId Var) const {
  for (const auto &[V, Coeff] : Terms)
    if (V == Var)
      return Coeff;
  return 0;
}

int64_t AffineExpr::evaluate(const std::vector<int64_t> &Env) const {
  int64_t Value = Constant;
  for (const auto &[Var, Coeff] : Terms) {
    assert(Var < Env.size() && "loop variable missing from environment");
    Value += Coeff * Env[Var];
  }
  return Value;
}
