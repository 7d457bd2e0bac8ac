//===- ir/Node.h - Loop-nest IR nodes --------------------------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The loop-nest intermediate representation.  A kernel body is a tree of
/// LoopNode (counted loop with affine bounds) and StmtNode (array
/// assignment whose right-hand side is a weighted sum or a scaled product
/// of array reads).  This is rich enough to express the eleven SPAPT
/// kernels while staying fully analyzable for the analytic machine model.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_IR_NODE_H
#define ALIC_IR_NODE_H

#include "ir/AffineExpr.h"

#include <cassert>
#include <memory>
#include <vector>

namespace alic {

/// Discriminator for the hand-rolled isa/cast scheme (LLVM style).
enum class NodeKind { Loop, Stmt };

/// Base class of the IR tree.
class IrNode {
public:
  explicit IrNode(NodeKind Kind) : Kind(Kind) {}
  virtual ~IrNode();

  NodeKind kind() const { return Kind; }

private:
  const NodeKind Kind;
};

/// dyn_cast-style accessor; returns nullptr on kind mismatch.
template <typename T> const T *nodeDynCast(const IrNode *Node) {
  if (Node && T::classof(Node))
    return static_cast<const T *>(Node);
  return nullptr;
}

/// One subscripted array reference, e.g. A[i][k+1].
struct ArrayAccess {
  unsigned ArrayId = 0;
  std::vector<AffineExpr> Subscripts;

  ArrayAccess() = default;
  ArrayAccess(unsigned ArrayId, std::vector<AffineExpr> Subscripts)
      : ArrayId(ArrayId), Subscripts(std::move(Subscripts)) {}
};

/// One read operand with its coefficient (used by sum-form statements).
struct ReadTerm {
  ArrayAccess Access;
  double Coeff = 1.0;
};

/// Shape of a statement's right-hand side.
enum class RhsKind {
  Sum,     ///< write (+)= Sum_i Coeff_i * Read_i
  Product, ///< write (+)= c * Prod_i Read_i (flops() charges c's multiply)
};

/// An array assignment statement.
class StmtNode : public IrNode {
public:
  StmtNode(ArrayAccess Write, bool Accumulate, RhsKind Rhs,
           std::vector<ReadTerm> Reads)
      : IrNode(NodeKind::Stmt), Write(std::move(Write)), Accumulate(Accumulate),
        Rhs(Rhs), Reads(std::move(Reads)) {}

  static bool classof(const IrNode *Node) {
    return Node->kind() == NodeKind::Stmt;
  }

  /// Floating-point operations per dynamic execution of this statement.
  unsigned flops() const;

  ArrayAccess Write;
  bool Accumulate = false;
  RhsKind Rhs = RhsKind::Sum;
  std::vector<ReadTerm> Reads;

  /// Marks statements whose real-world counterpart contains an FP divide
  /// (ADI sweeps, LU pivot scaling).  The IR keeps the polynomial form;
  /// the cost model charges the divide's long latency, which matters when
  /// the statement sits on a recurrence chain.
  bool HasDivision = false;
};

/// A counted loop: for (Var = Lower; Var < Upper; Var += Step).
class LoopNode : public IrNode {
public:
  LoopNode(LoopVarId Var, AffineExpr Lower, AffineExpr Upper, int64_t Step = 1)
      : IrNode(NodeKind::Loop), Var(Var), Lower(std::move(Lower)),
        Upper(std::move(Upper)), Step(Step) {
    assert(Step > 0 && "only forward loops are modeled");
  }

  static bool classof(const IrNode *Node) {
    return Node->kind() == NodeKind::Loop;
  }

  /// Appends a child node.
  void append(std::unique_ptr<IrNode> Node) { Body.push_back(std::move(Node)); }

  LoopVarId Var;
  AffineExpr Lower;
  AffineExpr Upper;
  int64_t Step = 1;
  std::vector<std::unique_ptr<IrNode>> Body;
};

} // namespace alic

#endif // ALIC_IR_NODE_H
