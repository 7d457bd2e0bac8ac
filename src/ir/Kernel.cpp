//===- ir/Kernel.cpp ------------------------------------------*- C++ -*-===//

#include "ir/Kernel.h"

#include "support/Error.h"

#include <cassert>

using namespace alic;

int64_t IrArrayDecl::numElements() const {
  int64_t Total = 1;
  for (int64_t D : Dims)
    Total *= D;
  return Total;
}

unsigned Kernel::addArray(std::string ArrayName, std::vector<int64_t> Dims) {
  assert(!Dims.empty() && "arrays need at least one dimension");
  for ([[maybe_unused]] int64_t D : Dims)
    assert(D > 0 && "array dimensions must be positive");
  Arrays.push_back({std::move(ArrayName), std::move(Dims)});
  return static_cast<unsigned>(Arrays.size() - 1);
}

LoopVarId Kernel::addLoopVar(std::string VarName) {
  VarNames.push_back(std::move(VarName));
  return static_cast<LoopVarId>(VarNames.size() - 1);
}

void Kernel::appendTopLevel(std::unique_ptr<IrNode> Node) {
  TopLevel.push_back(std::move(Node));
}

static void visitLoops(const std::vector<std::unique_ptr<IrNode>> &Nodes,
                       const std::function<void(const LoopNode &)> &Fn) {
  for (const auto &Node : Nodes) {
    const auto *Loop = nodeDynCast<LoopNode>(Node.get());
    if (!Loop)
      continue;
    Fn(*Loop);
    visitLoops(Loop->Body, Fn);
  }
}

void Kernel::forEachLoop(
    const std::function<void(const LoopNode &)> &Fn) const {
  visitLoops(TopLevel, Fn);
}

static void visitStmts(const std::vector<std::unique_ptr<IrNode>> &Nodes,
                       const std::function<void(const StmtNode &)> &Fn) {
  for (const auto &Node : Nodes) {
    if (const auto *Stmt = nodeDynCast<StmtNode>(Node.get())) {
      Fn(*Stmt);
      continue;
    }
    visitStmts(nodeDynCast<LoopNode>(Node.get())->Body, Fn);
  }
}

void Kernel::forEachStmt(
    const std::function<void(const StmtNode &)> &Fn) const {
  visitStmts(TopLevel, Fn);
}

size_t Kernel::countStmts() const {
  size_t Count = 0;
  forEachStmt([&Count](const StmtNode &) { ++Count; });
  return Count;
}

size_t Kernel::countLoops() const {
  size_t Count = 0;
  forEachLoop([&Count](const LoopNode &) { ++Count; });
  return Count;
}

namespace {
/// Recursive structural verifier; tracks which loop vars are in scope.
class Verifier {
public:
  Verifier(const Kernel &K) : K(K), InScope(K.numLoopVars(), false) {}

  void run() { verifyList(K.topLevel()); }

private:
  void checkExpr(const AffineExpr &E, const char *What) {
    for (const auto &[Var, Coeff] : E.terms()) {
      if (Var >= InScope.size())
        fatalError("kernel %s: %s references unknown loop var %u",
                   K.name().c_str(), What, Var);
      if (!InScope[Var])
        fatalError("kernel %s: %s references out-of-scope loop var %s",
                   K.name().c_str(), What, K.loopVarName(Var).c_str());
    }
  }

  void checkAccess(const ArrayAccess &Access) {
    if (Access.ArrayId >= K.numArrays())
      fatalError("kernel %s: access to unknown array %u", K.name().c_str(),
                 Access.ArrayId);
    const IrArrayDecl &Decl = K.array(Access.ArrayId);
    if (Access.Subscripts.size() != Decl.Dims.size())
      fatalError("kernel %s: array %s rank %zu accessed with %zu subscripts",
                 K.name().c_str(), Decl.Name.c_str(), Decl.Dims.size(),
                 Access.Subscripts.size());
    for (const AffineExpr &Sub : Access.Subscripts)
      checkExpr(Sub, "subscript");
  }

  void verifyList(const std::vector<std::unique_ptr<IrNode>> &Nodes) {
    for (const auto &Node : Nodes) {
      if (const auto *Stmt = nodeDynCast<StmtNode>(Node.get())) {
        checkAccess(Stmt->Write);
        for (const ReadTerm &Term : Stmt->Reads)
          checkAccess(Term.Access);
        continue;
      }
      const auto *Loop = nodeDynCast<LoopNode>(Node.get());
      checkExpr(Loop->Lower, "loop lower bound");
      checkExpr(Loop->Upper, "loop upper bound");
      if (Loop->Var >= InScope.size())
        fatalError("kernel %s: loop declares unknown var id %u",
                   K.name().c_str(), Loop->Var);
      if (InScope[Loop->Var])
        fatalError("kernel %s: loop var %s shadows an enclosing loop",
                   K.name().c_str(), K.loopVarName(Loop->Var).c_str());
      InScope[Loop->Var] = true;
      verifyList(Loop->Body);
      InScope[Loop->Var] = false;
    }
  }

  const Kernel &K;
  std::vector<bool> InScope;
};
} // namespace

void Kernel::verify() const { Verifier(*this).run(); }
