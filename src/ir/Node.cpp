//===- ir/Node.cpp --------------------------------------------*- C++ -*-===//

#include "ir/Node.h"

using namespace alic;

// Out-of-line virtual anchor (keeps the vtable in one object file).
IrNode::~IrNode() = default;

unsigned StmtNode::flops() const {
  if (Reads.empty())
    return 1;
  if (Rhs == RhsKind::Sum) {
    // One multiply per non-unit coefficient plus the adds.
    unsigned Flops = static_cast<unsigned>(Reads.size());
    for (const ReadTerm &Term : Reads)
      if (Term.Coeff != 1.0)
        ++Flops;
    return Flops;
  }
  // Product: |Reads| - 1 multiplies, one scale multiply, one optional add.
  unsigned Flops = static_cast<unsigned>(Reads.size());
  if (Accumulate)
    ++Flops;
  return Flops;
}
