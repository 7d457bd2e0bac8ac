//===- ir/AffineExpr.h - Affine index/bound expressions -------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Affine expressions over loop variables: sum(Coeff_i * Var_i) + Constant.
/// They serve as array subscripts and loop bounds in the kernel IR, and
/// their closed form is what makes the machine model's stride/reuse
/// analysis exact.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_IR_AFFINEEXPR_H
#define ALIC_IR_AFFINEEXPR_H

#include <cstdint>
#include <vector>

namespace alic {

/// Loop variables are identified by dense integer ids within a Kernel.
using LoopVarId = unsigned;

/// Affine combination of loop variables plus a constant.
class AffineExpr {
public:
  /// The zero expression.
  AffineExpr() = default;

  /// A constant expression.
  static AffineExpr constant(int64_t Value);

  /// The expression "Var".
  static AffineExpr var(LoopVarId Var);

  /// The expression "Coeff * Var + Offset".
  static AffineExpr scaledVar(LoopVarId Var, int64_t Coeff,
                              int64_t Offset = 0);

  /// Coefficient of \p Var (0 if absent).
  int64_t coefficient(LoopVarId Var) const;

  /// The constant term.
  int64_t constantTerm() const { return Constant; }

  /// True when \p Var appears with a nonzero coefficient.
  bool references(LoopVarId Var) const { return coefficient(Var) != 0; }

  /// Evaluates with \p Env giving each variable's value (indexed by id).
  int64_t evaluate(const std::vector<int64_t> &Env) const;

  /// (var, coefficient) pairs, each coefficient nonzero.
  const std::vector<std::pair<LoopVarId, int64_t>> &terms() const {
    return Terms;
  }

  bool operator==(const AffineExpr &Rhs) const {
    return Constant == Rhs.Constant && Terms == Rhs.Terms;
  }

private:
  std::vector<std::pair<LoopVarId, int64_t>> Terms;
  int64_t Constant = 0;
};

} // namespace alic

#endif // ALIC_IR_AFFINEEXPR_H
