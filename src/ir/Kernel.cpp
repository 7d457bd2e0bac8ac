//===- ir/Kernel.cpp ------------------------------------------*- C++ -*-===//

#include "ir/Kernel.h"

#include "support/Error.h"
#include "support/Format.h"

#include <cassert>

using namespace alic;

int64_t IrArrayDecl::numElements() const {
  int64_t Total = 1;
  for (int64_t D : Dims)
    Total *= D;
  return Total;
}

Kernel::Kernel(const Kernel &Other)
    : Name(Other.Name), Arrays(Other.Arrays), VarNames(Other.VarNames),
      TopLevel(cloneNodeList(Other.TopLevel)) {}

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

static LoopNode *findLoopIn(std::vector<std::unique_ptr<IrNode>> &Nodes,
                            LoopVarId Var) {
  for (auto &Node : Nodes) {
    auto *Loop = nodeDynCast<LoopNode>(Node.get());
    if (!Loop)
      continue;
    if (Loop->Var == Var)
      return Loop;
    if (LoopNode *Inner = findLoopIn(Loop->Body, Var))
      return Inner;
  }
  return nullptr;
}

LoopNode *Kernel::findLoop(LoopVarId Var) { return findLoopIn(TopLevel, Var); }

const LoopNode *Kernel::findLoop(LoopVarId Var) const {
  return findLoopIn(const_cast<Kernel *>(this)->TopLevel, Var);
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
      for (const AffineExpr &Upper : Loop->Uppers)
        checkExpr(Upper, "loop upper bound");
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

static void printAccess(std::string &Out, const Kernel &K,
                        const ArrayAccess &Access) {
  Out += K.array(Access.ArrayId).Name;
  for (const AffineExpr &Sub : Access.Subscripts) {
    Out += "[";
    Out += Sub.toString(K.loopVarNames());
    Out += "]";
  }
}

static void printNodes(std::string &Out, const Kernel &K,
                       const std::vector<std::unique_ptr<IrNode>> &Nodes,
                       unsigned Indent) {
  std::string Pad(Indent * 2, ' ');
  for (const auto &Node : Nodes) {
    if (const auto *Stmt = nodeDynCast<StmtNode>(Node.get())) {
      Out += Pad;
      printAccess(Out, K, Stmt->Write);
      Out += Stmt->Accumulate ? " += " : " = ";
      if (Stmt->Rhs == RhsKind::Product && Stmt->Scale != 1.0)
        Out += formatString("%g * ", Stmt->Scale);
      bool First = true;
      for (const ReadTerm &Term : Stmt->Reads) {
        if (!First)
          Out += Stmt->Rhs == RhsKind::Sum ? " + " : " * ";
        if (Stmt->Rhs == RhsKind::Sum && Term.Coeff != 1.0)
          Out += formatString("%g*", Term.Coeff);
        printAccess(Out, K, Term.Access);
        First = false;
      }
      if (Stmt->Reads.empty())
        Out += formatString("%g", Stmt->Bias);
      else if (Stmt->Bias != 0.0)
        Out += formatString(" + %g", Stmt->Bias);
      Out += ";\n";
      continue;
    }
    const auto *Loop = nodeDynCast<LoopNode>(Node.get());
    const std::string &Var = K.loopVarName(Loop->Var);
    Out += Pad;
    Out += formatString("for (%s = %s; %s < %s", Var.c_str(),
                        Loop->Lower.toString(K.loopVarNames()).c_str(),
                        Var.c_str(),
                        Loop->Uppers.front().toString(K.loopVarNames()).c_str());
    for (size_t I = 1; I != Loop->Uppers.size(); ++I)
      Out += formatString(" && %s < %s", Var.c_str(),
                          Loop->Uppers[I].toString(K.loopVarNames()).c_str());
    if (Loop->Step == 1)
      Out += formatString("; %s++) {\n", Var.c_str());
    else
      Out += formatString("; %s += %lld) {\n", Var.c_str(),
                          static_cast<long long>(Loop->Step));
    printNodes(Out, K, Loop->Body, Indent + 1);
    Out += Pad;
    Out += "}\n";
  }
}

std::string Kernel::toString() const {
  std::string Out = formatString("kernel %s {\n", Name.c_str());
  for (const IrArrayDecl &Decl : Arrays) {
    Out += "  double " + Decl.Name;
    for (int64_t D : Decl.Dims)
      Out += formatString("[%lld]", static_cast<long long>(D));
    Out += ";\n";
  }
  printNodes(Out, *this, TopLevel, 1);
  Out += "}\n";
  return Out;
}
