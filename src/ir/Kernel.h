//===- ir/Kernel.h - Kernel container for loop nests ----------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Kernel owns the array declarations, loop-variable symbol table, and
/// the top-level loop nests of one benchmark.  The machine model prices a
/// kernel together with a TransformPlan; nothing rewrites the nests.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_IR_KERNEL_H
#define ALIC_IR_KERNEL_H

#include "ir/Node.h"

#include <functional>
#include <string>

namespace alic {

/// A named dense array of doubles with constant dimensions.
struct IrArrayDecl {
  std::string Name;
  std::vector<int64_t> Dims;

  /// Total number of elements.
  int64_t numElements() const;
};

/// One benchmark kernel: arrays + loop variables + top-level nests.
class Kernel {
public:
  explicit Kernel(std::string Name) : Name(std::move(Name)) {}

  Kernel(const Kernel &) = delete;
  Kernel &operator=(const Kernel &) = delete;
  Kernel(Kernel &&) = default;
  Kernel &operator=(Kernel &&) = default;

  const std::string &name() const { return Name; }

  /// Declares an array; returns its id.
  unsigned addArray(std::string ArrayName, std::vector<int64_t> Dims);

  /// Declares a loop variable; returns its id.
  LoopVarId addLoopVar(std::string VarName);

  size_t numArrays() const { return Arrays.size(); }
  const IrArrayDecl &array(unsigned Id) const { return Arrays[Id]; }

  size_t numLoopVars() const { return VarNames.size(); }
  const std::string &loopVarName(LoopVarId Id) const { return VarNames[Id]; }

  /// Appends a top-level node (usually a LoopNode).
  void appendTopLevel(std::unique_ptr<IrNode> Node);

  const std::vector<std::unique_ptr<IrNode>> &topLevel() const {
    return TopLevel;
  }

  /// Visits every loop in pre-order.
  void forEachLoop(const std::function<void(const LoopNode &)> &Fn) const;

  /// Visits every statement in execution order (statically).
  void forEachStmt(const std::function<void(const StmtNode &)> &Fn) const;

  /// Number of statement nodes (static code size proxy).
  size_t countStmts() const;

  /// Number of loop nodes.
  size_t countLoops() const;

  /// Checks structural invariants (bounds reference only enclosing loop
  /// variables, subscript arities match array ranks, ids in range);
  /// aborts with a message on violation.
  void verify() const;

private:
  std::string Name;
  std::vector<IrArrayDecl> Arrays;
  std::vector<std::string> VarNames;
  std::vector<std::unique_ptr<IrNode>> TopLevel;
};

} // namespace alic

#endif // ALIC_IR_KERNEL_H
