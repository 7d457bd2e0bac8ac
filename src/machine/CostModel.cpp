//===- machine/CostModel.cpp ----------------------------------*- C++ -*-===//

#include "machine/CostModel.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace alic;

namespace {

/// One loop of a statement's effective (post-tiling) nest, outer to inner.
struct EffLoop {
  LoopVarId Var = 0;
  double Trip = 1.0;       ///< executed iterations of this effective loop
  bool IsTileCounter = false;
  double PointExtent = 1.0; ///< span of Var covered by one iteration
  int Unroll = 1;
  int RegisterTile = 1;
};

/// A loop of the original chain with its trip estimate and plan factors.
struct ChainLoop {
  const LoopNode *Loop = nullptr;
  double Trip = 1.0;
  LoopFactors Factors;
};

/// Accumulates the model over the kernel tree.
class Analyzer {
public:
  Analyzer(const Kernel &K, const TransformPlan &Plan, const MachineDesc &M)
      : K(K), Plan(Plan), M(M), Env(K.numLoopVars(), 0) {}

  CostBreakdown run() {
    walk(K.topLevel());
    finish();
    return Result;
  }

private:
  void walk(const std::vector<std::unique_ptr<IrNode>> &Nodes);
  void analyzeStmt(const StmtNode &Stmt);
  void finish();

  /// Builds the effective nest for the current chain: cache-tile counter
  /// loops hoisted to the front (original order), point loops after.
  std::vector<EffLoop> effectiveNest() const;

  /// Bytes touched by \p Access when original variable \p Var spans
  /// \p Span(Var) iterations for every Var (line-granular last dim).
  double bytesTouched(const ArrayAccess &Access,
                      const std::vector<double> &Span) const;

  /// Element stride of \p Access when \p Var advances by one.
  double elementStride(const ArrayAccess &Access, LoopVarId Var) const;

  const Kernel &K;
  const TransformPlan &Plan;
  const MachineDesc &M;
  std::vector<int64_t> Env;
  std::vector<ChainLoop> Chain;
  CostBreakdown Result;
};

} // namespace

void Analyzer::walk(const std::vector<std::unique_ptr<IrNode>> &Nodes) {
  for (const auto &Node : Nodes) {
    if (const auto *Stmt = nodeDynCast<StmtNode>(Node.get())) {
      analyzeStmt(*Stmt);
      continue;
    }
    const auto *Loop = nodeDynCast<LoopNode>(Node.get());
    int64_t Lo = Loop->Lower.evaluate(Env);
    int64_t Hi = Loop->Upper.evaluate(Env);
    double Trip =
        Hi > Lo ? std::ceil(double(Hi - Lo) / double(Loop->Step)) : 0.0;
    if (Trip <= 0.0)
      continue; // dead loop at the midpoint estimate
    int64_t Saved = Env[Loop->Var];
    Env[Loop->Var] = Lo + (Hi - Lo) / 2;
    Chain.push_back({Loop, Trip, Plan.factors(Loop->Var)});
    walk(Loop->Body);
    Chain.pop_back();
    Env[Loop->Var] = Saved;
  }
}

std::vector<EffLoop> Analyzer::effectiveNest() const {
  std::vector<EffLoop> Nest;
  // Tile-counter band first, in original loop order.
  for (const ChainLoop &C : Chain) {
    int T = C.Factors.CacheTile;
    if (T > 1 && double(T) < C.Trip) {
      EffLoop E;
      E.Var = C.Loop->Var;
      E.Trip = std::ceil(C.Trip / double(T));
      E.IsTileCounter = true;
      E.PointExtent = double(T); // one iteration advances a whole tile
      Nest.push_back(E);
    }
  }
  // Point band afterwards, original order.
  for (const ChainLoop &C : Chain) {
    int T = C.Factors.CacheTile;
    bool Tiled = T > 1 && double(T) < C.Trip;
    EffLoop E;
    E.Var = C.Loop->Var;
    E.Trip = Tiled ? double(T) : C.Trip;
    E.PointExtent = 1.0;
    E.Unroll = C.Factors.Unroll;
    E.RegisterTile = C.Factors.RegisterTile;
    Nest.push_back(E);
  }
  return Nest;
}

double Analyzer::bytesTouched(const ArrayAccess &Access,
                              const std::vector<double> &Span) const {
  const IrArrayDecl &Decl = K.array(Access.ArrayId);
  double Bytes = 1.0;
  for (size_t D = 0; D != Decl.Dims.size(); ++D) {
    double Extent = 1.0;
    for (const auto &[Var, Coeff] : Access.Subscripts[D].terms()) {
      double S = Var < Span.size() ? Span[Var] : 1.0;
      Extent += std::fabs(double(Coeff)) * (S - 1.0);
    }
    Extent = std::min(Extent, double(Decl.Dims[D]));
    if (D + 1 == Decl.Dims.size()) {
      // Line granularity on the contiguous dimension.
      double Lines = std::ceil(Extent * 8.0 / M.LineBytes);
      Bytes *= Lines * M.LineBytes;
    } else {
      Bytes *= Extent;
    }
  }
  return Bytes;
}

double Analyzer::elementStride(const ArrayAccess &Access,
                               LoopVarId Var) const {
  const IrArrayDecl &Decl = K.array(Access.ArrayId);
  double DimStride = 1.0;
  double Stride = 0.0;
  for (size_t D = Decl.Dims.size(); D-- > 0;) {
    Stride += double(Access.Subscripts[D].coefficient(Var)) * DimStride;
    DimStride *= double(Decl.Dims[D]);
  }
  return std::fabs(Stride);
}

void Analyzer::analyzeStmt(const StmtNode &Stmt) {
  if (Chain.empty())
    return; // straight-line statements cost epsilon; ignore
  std::vector<EffLoop> Nest = effectiveNest();

  // Exact statement instances use original trips; loop events use the
  // ceil-rounded effective trips so partial tiles cost their overhead.
  double Instances = 1.0;
  for (const ChainLoop &C : Chain)
    Instances *= C.Trip;

  // --- Loop-control overhead -------------------------------------------
  // Loop l executes (product of outer original trips) * ceil(trip_l / u_l)
  // iteration events: unrolling/register-tiling a loop divides its own
  // events (the replicated bodies execute inside one event).
  double LoopEvents = 0.0;
  double OuterProduct = 1.0;
  for (const EffLoop &E : Nest) {
    double UnrollBy = double(E.Unroll) * double(E.RegisterTile);
    LoopEvents += OuterProduct * std::ceil(E.Trip / std::max(1.0, UnrollBy));
    OuterProduct *= E.Trip;
  }
  double OverheadCycles = LoopEvents * M.LoopOverheadCycles;

  // --- Compute ----------------------------------------------------------
  // Three dependence situations for an accumulate statement under strict
  // (no -ffast-math) FP semantics:
  //  * elementwise update (write moves with the innermost loop, no shifted
  //    self-read): iterations independent, throughput bound;
  //  * reduction (write invariant in the innermost loop): the add chain
  //    serializes; only register tiling introduces independent partial
  //    accumulators (plain unrolling must keep the evaluation order);
  //  * recurrence (self-read shifted along the innermost variable, as in
  //    adi's sweeps): the chain is unbreakable, and unrolling *hurts* by
  //    inflating live ranges across the serial chain — this yields the
  //    climb-and-plateau of the paper's Figure 2.
  const EffLoop &Innermost = Nest.back();
  double RtProduct = 1.0;
  for (const EffLoop &E : Nest)
    if (!E.IsTileCounter)
      RtProduct *= double(E.RegisterTile);

  bool WriteMovesInnermost = false;
  for (const AffineExpr &Sub : Stmt.Write.Subscripts)
    if (Sub.references(Innermost.Var))
      WriteMovesInnermost = true;

  bool InnermostRecurrence = false;
  if (Stmt.Accumulate || !WriteMovesInnermost) {
    for (const ReadTerm &Term : Stmt.Reads) {
      if (Term.Access.ArrayId != Stmt.Write.ArrayId)
        continue;
      // Constant-shift self-read with a shift along the innermost var?
      bool ConstShift = true;
      bool ShiftsInnermost = false;
      for (size_t D = 0; D != Term.Access.Subscripts.size(); ++D) {
        const AffineExpr &R = Term.Access.Subscripts[D];
        const AffineExpr &W = Stmt.Write.Subscripts[D];
        if (R.terms() != W.terms()) {
          ConstShift = false;
          break;
        }
        if (R.constantTerm() != W.constantTerm() &&
            R.references(Innermost.Var))
          ShiftsInnermost = true;
      }
      if (ConstShift && ShiftsInnermost) {
        InnermostRecurrence = true;
        break;
      }
    }
  }

  double ThroughputCycles = double(Stmt.flops()) / M.FlopsPerCycle;
  if (Stmt.HasDivision)
    ThroughputCycles += 0.25 * M.FpDivideLatency; // partially pipelined
  double ChainLatency =
      Stmt.HasDivision ? M.FpDivideLatency : M.FpDependencyLatency;
  double DepCycles = 0.0;
  double TotalUnroll = 1.0;
  for (const EffLoop &E : Nest)
    TotalUnroll *= double(E.Unroll) * double(E.RegisterTile);
  if (InnermostRecurrence) {
    DepCycles = ChainLatency;
    // Saturating harm from unrolling across the serial chain: the longer
    // the replicated body, the worse the scheduler does around the chain.
    DepCycles += ChainLatency * (1.0 - 1.0 / TotalUnroll);
  } else if (Stmt.Accumulate && !WriteMovesInnermost) {
    DepCycles = ChainLatency / std::min(16.0, RtProduct);
  }
  double ComputePerInstance = std::max(ThroughputCycles, DepCycles);
  double ComputeCycles = ComputePerInstance * Instances;

  // --- Register pressure -------------------------------------------------
  // Unroll-and-jam holds (reads + accumulator) live per register-tile
  // copy; plain unrolling adds a mild extra demand.  The penalty grows
  // with the overflow but saturates: compilers spill to L1, they do not
  // collapse.
  double LiveRegs = (double(Stmt.Reads.size()) + 1.0) * RtProduct +
                    0.5 * double(Innermost.Unroll);
  double Excess = std::max(0.0, LiveRegs - double(M.NumFpRegisters));
  // Saturating: heavy overflow spills to L1 (a few extra cycles per op),
  // it does not grow without bound.
  double EffectiveExcess = 24.0 * (1.0 - std::exp(-Excess / 24.0));
  double SpillCycles =
      EffectiveExcess * M.SpillCyclesPerExcessReg * Instances;

  // --- Memory ------------------------------------------------------------
  // Span of each original variable across the loops deeper than depth p.
  // A point loop contributes its trip (= tile size when tiled); when the
  // tile-counter loop is also in the suffix the product recovers the full
  // original trip.
  auto spansDeeperThan = [&](size_t Depth) {
    std::vector<double> Span(K.numLoopVars(), 1.0);
    for (size_t I = Depth + 1; I < Nest.size(); ++I)
      Span[Nest[I].Var] *= Nest[I].Trip;
    return Span;
  };

  std::vector<const ArrayAccess *> Accesses;
  Accesses.push_back(&Stmt.Write);
  for (const ReadTerm &Term : Stmt.Reads)
    Accesses.push_back(&Term.Access);

  // Bytes touched by the whole statement inside one iteration of the
  // effective loop at each depth (for group-reuse distances).
  auto perIterBytes = [&](size_t Depth) {
    std::vector<double> Span = spansDeeperThan(Depth);
    double Bytes = 0.0;
    for (const ArrayAccess *B : Accesses)
      Bytes += bytesTouched(*B, Span);
    return Bytes;
  };

  // Deepest effective-loop position of original variable \p Var.
  auto depthOfVar = [&](LoopVarId Var) {
    for (size_t I = Nest.size(); I-- > 0;)
      if (Nest[I].Var == Var)
        return I;
    return Nest.size() - 1;
  };

  // Maps a reuse volume to the extra latency beyond L1 of the smallest
  // level that holds it (memory misses overlap via hardware prefetch).
  const double L1Latency = M.Caches.front().LatencyCycles;
  auto extraLatencyFor = [&](double ReuseVolume) {
    if (ReuseVolume <= M.Caches.front().SizeBytes * M.CacheUtilization)
      return 0.0;
    for (size_t L = 1; L < M.Caches.size(); ++L)
      if (ReuseVolume <= M.Caches[L].SizeBytes * M.CacheUtilization)
        return M.Caches[L].LatencyCycles - L1Latency;
    return (M.MemoryLatencyCycles - L1Latency) / M.MaxMlp;
  };

  double MemPerInstance = 0.0;
  for (size_t AI = 0; AI != Accesses.size(); ++AI) {
    const ArrayAccess *Access = Accesses[AI];
    // Base L1 pipeline cost for every architectural access.
    MemPerInstance += 0.25;

    // Exact duplicate of an earlier access: same line, already charged.
    bool Duplicate = false;
    for (size_t BI = 0; BI != AI && !Duplicate; ++BI)
      Duplicate = Accesses[BI]->ArrayId == Access->ArrayId &&
                  Accesses[BI]->Subscripts == Access->Subscripts;
    if (Duplicate)
      continue;

    // Group reuse: if another access of the same array touches the same
    // locations a few iterations earlier (constant-shift subscripts with a
    // lexicographically larger constant vector), this access is a follower
    // and is served from wherever the leader's footprint still lives.
    double FollowerVolume = -1.0;
    for (const ArrayAccess *B : Accesses) {
      if (B == Access || B->ArrayId != Access->ArrayId)
        continue;
      if (B->Subscripts.size() != Access->Subscripts.size())
        continue;
      bool ConstShift = true;
      size_t FirstDiffDim = B->Subscripts.size();
      for (size_t D = 0; D != B->Subscripts.size(); ++D) {
        if (B->Subscripts[D].terms() != Access->Subscripts[D].terms()) {
          ConstShift = false;
          break;
        }
        if (FirstDiffDim == B->Subscripts.size() &&
            B->Subscripts[D].constantTerm() !=
                Access->Subscripts[D].constantTerm())
          FirstDiffDim = D;
      }
      if (!ConstShift || FirstDiffDim == B->Subscripts.size())
        continue;
      int64_t Delta = B->Subscripts[FirstDiffDim].constantTerm() -
                      Access->Subscripts[FirstDiffDim].constantTerm();
      if (Delta <= 0)
        continue; // B trails us; it will reuse our lines instead
      // Reuse distance: |Delta| iterations of the deepest variable in the
      // differing dimension.
      LoopVarId ShiftVar = Access->Subscripts[FirstDiffDim].terms().empty()
                               ? Innermost.Var
                               : Access->Subscripts[FirstDiffDim]
                                     .terms()
                                     .back()
                                     .first;
      double Volume = double(Delta) * perIterBytes(depthOfVar(ShiftVar));
      if (FollowerVolume < 0.0 || Volume < FollowerVolume)
        FollowerVolume = Volume;
    }

    double ReuseVolume;
    if (FollowerVolume >= 0.0) {
      ReuseVolume = FollowerVolume;
    } else {
      // Temporal self reuse: the deepest effective loop that does not move
      // this access re-touches it each iteration.
      size_t ReuseDepth = Nest.size(); // sentinel: streaming (no reuse)
      for (size_t I = Nest.size(); I-- > 0;) {
        bool Moves = false;
        for (const AffineExpr &Sub : Access->Subscripts)
          if (Sub.references(Nest[I].Var)) {
            Moves = true;
            break;
          }
        if (!Moves) {
          ReuseDepth = I;
          break;
        }
      }
      if (ReuseDepth == Nest.size()) {
        // Streaming: served from wherever the whole array resides.
        ReuseVolume = double(K.array(Access->ArrayId).numElements()) * 8.0;
      } else {
        std::vector<double> Span = spansDeeperThan(ReuseDepth);
        ReuseVolume = 0.0;
        for (const ArrayAccess *B : Accesses)
          ReuseVolume += bytesTouched(*B, Span);
      }
    }

    double ExtraLatency = extraLatencyFor(ReuseVolume);
    if (ExtraLatency <= 0.0)
      continue;

    // New-line fraction per executed instance.
    double StrideBytes = elementStride(*Access, Innermost.Var) * 8.0;
    if (StrideBytes == 0.0)
      continue; // innermost-invariant: register resident
    double LineFraction = std::min(1.0, StrideBytes / M.LineBytes);
    MemPerInstance += LineFraction * ExtraLatency;
  }
  double MemoryCycles = MemPerInstance * Instances;

  // --- Code size ----------------------------------------------------------
  double Expansion = 1.0;
  for (const ChainLoop &C : Chain)
    Expansion *= double(C.Factors.Unroll) * double(C.Factors.RegisterTile);
  Result.CodeStmts += Expansion;

  Result.ComputeCycles += ComputeCycles;
  Result.LoopOverheadCycles += OverheadCycles;
  Result.SpillCycles += SpillCycles;
  Result.MemoryCycles += MemoryCycles;
}

void Analyzer::finish() {
  // Front-end penalty saturates as the unrolled body outgrows the icache.
  double FrontFactor = 0.0;
  if (Result.CodeStmts > M.ICacheStmtCapacity)
    FrontFactor = M.ICachePenaltyMax *
                  (1.0 - M.ICacheStmtCapacity / Result.CodeStmts);
  Result.FrontEndCycles =
      FrontFactor *
      (Result.ComputeCycles + Result.LoopOverheadCycles + Result.SpillCycles);

  Result.TotalCycles = Result.ComputeCycles + Result.LoopOverheadCycles +
                       Result.SpillCycles + Result.MemoryCycles +
                       Result.FrontEndCycles;
  Result.RuntimeSeconds = Result.TotalCycles / (M.FrequencyGHz * 1e9);

  double Loops = double(K.countLoops());
  Result.CompileSeconds =
      M.CompileBaseSeconds +
      M.CompilePerStmtSeconds *
          std::pow(std::max(1.0, Result.CodeStmts), M.CompileStmtExponent) +
      M.CompilePerLoopSeconds * Loops;
}

CostBreakdown CostModel::evaluate(const Kernel &K,
                                  const TransformPlan &Plan) const {
  Analyzer A(K, Plan, Desc);
  return A.run();
}
