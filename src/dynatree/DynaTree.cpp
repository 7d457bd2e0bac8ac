//===- dynatree/DynaTree.cpp ----------------------------------*- C++ -*-===//

#include "dynatree/DynaTree.h"

#include "stats/Distributions.h"
#include "support/Error.h"
#include "support/Scheduler.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>

using namespace alic;

// ThreadSanitizer does not instrument std::atomic_thread_fence, so it
// cannot see the (valid) fence/use_count synchronization materialize()
// relies on for its in-place path.  Sanitizer builds therefore always
// clone — the two paths produce bit-identical tree contents, so only
// the sanitizer's blind spot goes away, never a result.
#if defined(__SANITIZE_THREAD__)
#define ALIC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ALIC_TSAN 1
#endif
#endif
#ifndef ALIC_TSAN
#define ALIC_TSAN 0
#endif

namespace {
/// Particles per shard of the parallel reweight/propagate phases.  Fixed
/// (never derived from the thread count) so the shard grid — and with it
/// every per-particle RNG stream — is identical at any parallelism.
constexpr size_t ParticleShardSize = 64;
} // namespace

DynaTree::DynaTree(DynaTreeConfig Config) : Config(Config) {
  assert(Config.NumParticles >= 1 && "need at least one particle");
  assert(Config.MinLeafSize >= 1 && "leaves need at least one observation");
}

double DynaTree::splitProbability(unsigned Depth) const {
  return Config.SplitAlpha * std::pow(1.0 + double(Depth), -Config.SplitBeta);
}

Rng DynaTree::particleRng(uint64_t Step, size_t Index) const {
  return Rng(hashCombine({Config.Seed, Step, uint64_t(Index), 0xd7eeull}));
}

//===----------------------------------------------------------------------===//
// Leaf posterior (Normal-Inverse-Gamma conjugate algebra)
//===----------------------------------------------------------------------===//

void DynaTree::ensureMarginalTables(size_t MaxN) {
  if (LogGammaAnTable.size() > MaxN)
    return;
  // Geometric push_back growth on purpose: update() extends by one entry
  // per step, and an exact reserve here would reallocate every call.
  for (size_t N = LogGammaAnTable.size(); N <= MaxN; ++N) {
    LogGammaAnTable.push_back(logGamma(Config.PriorShape + 0.5 * double(N)));
    LogKnTable.push_back(std::log(Config.PriorKappa + double(N)));
  }
}

double DynaTree::logMarginal(uint32_t N, double SumY, double SumY2) const {
  if (N == 0)
    return 0.0;
  assert(N < LogGammaAnTable.size() && "marginal tables not extended");
  double K0 = Config.PriorKappa;
  double A0 = Config.PriorShape;
  double B0 = PriorScale;
  double M0 = PriorMean;
  double Nd = double(N);
  double Mean = SumY / Nd;
  double Ss = std::max(0.0, SumY2 - Nd * Mean * Mean);
  double Kn = K0 + Nd;
  double An = A0 + 0.5 * Nd;
  double Bn = B0 + 0.5 * Ss +
              0.5 * K0 * Nd * (Mean - M0) * (Mean - M0) / Kn;
  // Identical arithmetic to the direct form — the count-indexed logGamma
  // and log terms are table reads of the very same function values.
  return LogGammaAnTable[N] - LogGammaA0 + A0 * LogB0 -
         An * std::log(Bn) + 0.5 * (LogK0 - LogKnTable[N]) -
         0.5 * Nd * std::log(2.0 * M_PI);
}

/// Posterior NIG parameters of a leaf.
namespace {
struct LeafPosterior {
  double Mn, Kn, An, Bn;
};
} // namespace

static LeafPosterior posteriorOf(uint32_t N, double SumY, double SumY2,
                                 double K0, double A0, double B0, double M0) {
  double Nd = double(N);
  double Mean = N ? SumY / Nd : 0.0;
  double Ss = N ? std::max(0.0, SumY2 - Nd * Mean * Mean) : 0.0;
  LeafPosterior P;
  P.Kn = K0 + Nd;
  P.Mn = (K0 * M0 + SumY) / P.Kn;
  P.An = A0 + 0.5 * Nd;
  P.Bn = B0 + 0.5 * Ss + 0.5 * K0 * Nd * (Mean - M0) * (Mean - M0) / P.Kn;
  return P;
}

double DynaTree::logPredictive(const LeafStats &S, double Y) const {
  LeafPosterior P = posteriorOf(S.Count, S.SumY, S.SumY2, Config.PriorKappa,
                                Config.PriorShape, PriorScale, PriorMean);
  // Student-t with df = 2*An, location Mn, scale^2 = Bn (Kn+1) / (An Kn).
  double Df = 2.0 * P.An;
  double Scale2 = P.Bn * (P.Kn + 1.0) / (P.An * P.Kn);
  double Scale = std::sqrt(Scale2);
  double Z = (Y - P.Mn) / Scale;
  return std::log(studentTPdf(Z, Df) / Scale);
}

Prediction DynaTree::leafPredictive(const LeafStats &S) const {
  LeafPosterior P = posteriorOf(S.Count, S.SumY, S.SumY2, Config.PriorKappa,
                                Config.PriorShape, PriorScale, PriorMean);
  double Df = 2.0 * P.An;
  double Scale2 = P.Bn * (P.Kn + 1.0) / (P.An * P.Kn);
  Prediction Out;
  Out.Mean = P.Mn;
  Out.Variance = Df > 2.0 ? Scale2 * Df / (Df - 2.0) : Scale2 * 3.0;
  return Out;
}

double DynaTree::leafVarianceDrop(const LeafStats &S) const {
  LeafPosterior P = posteriorOf(S.Count, S.SumY, S.SumY2, Config.PriorKappa,
                                Config.PriorShape, PriorScale, PriorMean);
  // sigma2_hat * [ (Kn+1)/Kn - (Kn+2)/(Kn+1) ]: the expected shrink of the
  // predictive variance when the leaf absorbs one more observation.
  double Sigma2 = P.An > 1.0 ? P.Bn / (P.An - 1.0) : P.Bn;
  double Now = (P.Kn + 1.0) / P.Kn;
  double Then = (P.Kn + 2.0) / (P.Kn + 1.0);
  return Sigma2 * (Now - Then);
}

//===----------------------------------------------------------------------===//
// Tree navigation and bookkeeping
//===----------------------------------------------------------------------===//

int32_t DynaTree::findLeaf(const Tree &T, const double *X) const {
  int32_t Idx = 0;
  while (T.Nodes[Idx].Left >= 0) {
    const Node &N = T.Nodes[Idx];
    Idx = X[N.SplitDim] <= N.SplitValue ? N.Left : N.Right;
  }
  return Idx;
}

DynaTree::LeafStats DynaTree::leafStats(const Particle &P,
                                        int32_t LeafIdx) const {
  const Node &N = P.T->Nodes[size_t(LeafIdx)];
  LeafStats S{N.Count, N.SumY, N.SumY2};
  // Fold pending absorptions in FIFO order — the same order materialize()
  // flushes them — so deferred and flushed stats agree bit-for-bit.
  for (unsigned I = 0; I != P.NumPending; ++I)
    if (P.Pending[I].LeafIdx == LeafIdx) {
      double Y = DataY[P.Pending[I].PointIdx];
      S.SumY += Y;
      S.SumY2 += Y * Y;
      ++S.Count;
    }
  return S;
}

template <typename Fn>
void DynaTree::forEachLeafPoint(const Particle &P, int32_t LeafIdx,
                                Fn &&F) const {
  const Tree &T = *P.T;
  for (int32_t C = T.Nodes[size_t(LeafIdx)].PtsHead; C >= 0;
       C = T.Chunks[size_t(C)].Next) {
    const PtsChunk &Chunk = T.Chunks[size_t(C)];
    for (uint32_t I = 0; I != Chunk.Used; ++I)
      F(Chunk.Entries[I]);
  }
  for (unsigned I = 0; I != P.NumPending; ++I)
    if (P.Pending[I].LeafIdx == LeafIdx)
      F(P.Pending[I].PointIdx);
}

void DynaTree::pushBoundsSlot(Tree &T) const {
  T.Bounds.insert(T.Bounds.end(), Dims, 1e300);  // lows
  T.Bounds.insert(T.Bounds.end(), Dims, -1e300); // highs
}

void DynaTree::absorbInto(Tree &T, int32_t LeafIdx, uint32_t PointIdx) {
  Node &Leaf = T.Nodes[size_t(LeafIdx)];
  double Y = DataY[PointIdx];
  Leaf.SumY += Y;
  Leaf.SumY2 += Y * Y;
  ++Leaf.Count;
  // Expand the leaf's bounding box — the cached ranges grow proposals cut.
  const double *Row = DataX.row(PointIdx);
  double *Lo = T.Bounds.data() + size_t(LeafIdx) * 2 * Dims;
  double *Hi = Lo + Dims;
  for (size_t Dim = 0; Dim != Dims; ++Dim) {
    Lo[Dim] = std::min(Lo[Dim], Row[Dim]);
    Hi[Dim] = std::max(Hi[Dim], Row[Dim]);
  }
  if (Leaf.PtsHead >= 0 && T.Chunks[size_t(Leaf.PtsHead)].Used < ChunkCapacity) {
    PtsChunk &Head = T.Chunks[size_t(Leaf.PtsHead)];
    Head.Entries[Head.Used++] = PointIdx;
    return;
  }
  PtsChunk Fresh;
  Fresh.Next = Leaf.PtsHead;
  Fresh.Used = 1;
  Fresh.Entries[0] = PointIdx;
  T.Chunks.push_back(Fresh);
  Leaf.PtsHead = int32_t(T.Chunks.size() - 1);
}

void DynaTree::materialize(Particle &P) {
  // use_count() == 1 proves sole ownership: during the parallel propagate
  // phase other threads only *release* references (when their particles
  // clone), never acquire them, so an observed 1 cannot be stale.  A stale
  // 2 merely takes the clone path, which produces identical contents.
  if (ALIC_TSAN || P.T.use_count() != 1) {
    P.T = std::make_shared<Tree>(*P.T);
  } else {
    // Order the in-place writes below after a sibling thread's
    // clone-and-release of this tree: use_count() is a relaxed load, so
    // pair the releasing decrement with an explicit acquire fence.
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  Tree &T = *P.T;
  for (unsigned I = 0; I != P.NumPending; ++I)
    absorbInto(T, P.Pending[I].LeafIdx, P.Pending[I].PointIdx);
  P.NumPending = 0;
}

//===----------------------------------------------------------------------===//
// Unique-particle run index
//===----------------------------------------------------------------------===//

namespace {
/// Two particles are state-identical — and therefore produce bit-equal
/// leaf walks, posteriors, and scores — when they alias one tree object
/// and carry the same pending list.  Tree *identity* (not content) is
/// the criterion: content-equal trees in different allocations would
/// also dedupe correctly, but detecting them would cost more than it
/// saves, and resampling only ever creates identity aliases.
template <typename ParticleT>
bool sameRunState(const ParticleT &A, const ParticleT &B) {
  if (A.T.get() != B.T.get() || A.NumPending != B.NumPending)
    return false;
  for (unsigned I = 0; I != A.NumPending; ++I)
    if (A.Pending[I].LeafIdx != B.Pending[I].LeafIdx ||
        A.Pending[I].PointIdx != B.Pending[I].PointIdx)
      return false;
  return true;
}
} // namespace

void DynaTree::rebuildRunIndex() {
  size_t N = Particles.size();
  RunOffsets.clear();
  RunOf.resize(N);
  for (size_t I = 0; I != N; ++I) {
    if (I == 0 || !sameRunState(Particles[I - 1], Particles[I]))
      RunOffsets.push_back(uint32_t(I));
    RunOf[I] = uint32_t(RunOffsets.size() - 1);
  }
  RunOffsets.push_back(uint32_t(N));
}

//===----------------------------------------------------------------------===//
// SMC machinery
//===----------------------------------------------------------------------===//

void DynaTree::resampleParticles(const std::vector<double> &LogWeights) {
  size_t N = Particles.size();
  double MaxLw = *std::max_element(LogWeights.begin(), LogWeights.end());
  std::vector<double> W(N);
  double Sum = 0.0;
  for (size_t I = 0; I != N; ++I) {
    W[I] = std::exp(LogWeights[I] - MaxLw);
    Sum += W[I];
  }
  if (!(Sum > 0.0) || !std::isfinite(Sum)) {
    LastEss = double(N);
    return; // degenerate weights: keep the current ensemble
  }
  double Ess = 0.0;
  for (double &Wi : W) {
    Wi /= Sum;
    Ess += Wi * Wi;
  }
  LastEss = 1.0 / Ess;

  // Systematic resampling around a counter-derived pivot: the draw is a
  // pure function of (seed, step), independent of any shared RNG state.
  std::vector<uint32_t> Counts(N, 0);
  double U =
      Rng(hashCombine({Config.Seed, StepCounter, 0x7e5a3b1eull})).nextDouble() /
      double(N);
  double Cum = 0.0;
  size_t J = 0;
  for (size_t I = 0; I != N; ++I) {
    Cum += W[I];
    while (J < N && U + double(J) / double(N) <= Cum + 1e-15) {
      ++Counts[I];
      ++J;
    }
  }

  // Materialize the offspring as copy-on-write aliases: a duplicate costs
  // one shared_ptr copy plus the (64-byte) pending list — the tree itself
  // is cloned only if and when the offspring later mutates.
  std::vector<Particle> Next;
  Next.reserve(N);
  for (size_t I = 0; I != N; ++I) {
    for (uint32_t C = 1; C < Counts[I]; ++C)
      Next.push_back(Particles[I]); // shares the tree
    if (Counts[I] > 0)
      Next.push_back(std::move(Particles[I]));
  }
  assert(Next.size() == N && "systematic resampling must preserve count");
  Particles = std::move(Next);
}

void DynaTree::propagate(Particle &P, uint32_t PointIdx, Rng &R,
                         GrowScratch &S, bool ReuseScan) {
  const double *X = DataX.row(PointIdx);
  double NewY = DataY[PointIdx];

  // Candidate-independent preamble — leaf location, effective stats,
  // bounds, and the packed leaf columns for the grow scan.  Every alias
  // of a unique-particle run (same tree, same pending list) computes the
  // exact same values here, so the caller lets consecutive aliases reuse
  // the scratch: only the RNG draws below differ between them.  Siblings
  // cannot invalidate the cache mid-run — a clone never touches the
  // shared tree, in-place materialization requires sole ownership (and a
  // pending alias still holds a reference), and a sibling's "stay" only
  // appends to its *own* pending list.
  if (!ReuseScan)
    S.Valid = false;
  if (!S.Valid) {
    S.LeafIdx = findLeaf(*P.T, X);
    S.Eff = leafStats(P, S.LeafIdx);
    S.LStay = logMarginal(S.Eff.Count + 1, S.Eff.SumY + NewY,
                          S.Eff.SumY2 + NewY * NewY);
    S.CanGrow = S.Eff.Count + 1 >= 2 * Config.MinLeafSize;
    S.Spread.clear();
    if (S.CanGrow) {
      // The leaf's per-dimension ranges come from its cached bounding box
      // (expanded on every absorb) folded with the pending points and the
      // new point — no pass over the leaf's data is needed to bound it.
      const double *BaseLo = P.T->Bounds.data() + size_t(S.LeafIdx) * 2 * Dims;
      const double *BaseHi = BaseLo + Dims;
      S.Lo.assign(BaseLo, BaseLo + Dims);
      S.Hi.assign(BaseHi, BaseHi + Dims);
      auto Expand = [&](const double *Row) {
        for (size_t Dim = 0; Dim != Dims; ++Dim) {
          S.Lo[Dim] = std::min(S.Lo[Dim], Row[Dim]);
          S.Hi[Dim] = std::max(S.Hi[Dim], Row[Dim]);
        }
      };
      for (unsigned I = 0; I != P.NumPending; ++I)
        if (P.Pending[I].LeafIdx == S.LeafIdx)
          Expand(DataX.row(P.Pending[I].PointIdx));
      Expand(X);
      for (size_t Dim = 0; Dim != Dims; ++Dim)
        if (S.Hi[Dim] > S.Lo[Dim])
          S.Spread.push_back(int(Dim));
      if (!S.Spread.empty()) {
        // Pack the leaf's rows — pending included, new point last, in
        // forEachLeafPoint order — into one unit-stride column per
        // spread dimension plus Y and Y^2.  The multi-try scan below
        // then reads packed arrays instead of chasing PtsChunk links
        // and Dims-strided DataX gathers per try, and aliased particles
        // reuse the gather outright.
        S.Pts.clear();
        forEachLeafPoint(P, S.LeafIdx,
                         [&](uint32_t Pt) { S.Pts.push_back(Pt); });
        size_t NumPts = S.Pts.size() + 1; // + the new point, appended last
        S.Ys.resize(NumPts);
        S.Y2s.resize(NumPts);
        for (size_t I = 0; I != S.Pts.size(); ++I) {
          double Y = DataY[S.Pts[I]];
          S.Ys[I] = Y;
          S.Y2s[I] = Y * Y;
        }
        S.Ys[NumPts - 1] = NewY;
        S.Y2s[NumPts - 1] = NewY * NewY;
        // Columns are gathered lazily when a try first draws their
        // dimension (ColDone memoizes per run): a unique particle pays
        // for at most the <= 4 dimensions its tries touch, while long
        // alias runs still amortize every gather they need.
        S.Cols.resize(S.Spread.size() * NumPts);
        S.ColDone.assign(S.Spread.size(), 0);
      }
    }
    S.Valid = true;
  }

  int32_t LeafIdx = S.LeafIdx;
  const LeafStats &Eff = S.Eff;
  unsigned D = P.T->Nodes[size_t(LeafIdx)].Depth;
  double LStay = S.LStay;

  // --- Candidate: grow -----------------------------------------------
  // Multiple-try proposal: draw a handful of (dimension, cut) pairs from
  // the leaf's data range, weight each by the posterior of the resulting
  // split, and let their average compete against stay/prune.  This
  // approximates marginalizing the grow move over cut positions, which a
  // single uniform draw does far too weakly.
  int GrowDim = -1;
  double GrowCut = 0.0;
  double LGrow = -1e300;
  if (S.CanGrow && !S.Spread.empty()) {
    constexpr unsigned NumTries = 4;
    double BestL = -1e300;
    double Pd = splitProbability(D);
    double Pd1 = splitProbability(D + 1);
    double PriorTerm = std::log(Pd) + 2.0 * std::log(1.0 - Pd1) -
                       std::log(1.0 - Pd);
    // Draw every (dimension, cut) proposal first, then score all of them
    // branchless (a predicated accumulate — random cuts mispredict ~50%
    // of data-dependent branches) over the packed columns.  Each try's
    // accumulators see the exact point order of the historical row-outer
    // loop, so the FP sums are bit-identical; only the left side is
    // accumulated — the right side falls out of the leaf totals.
    struct TryAcc {
      int Dim;
      double Cut;
      uint32_t Nl = 0;
      double Sl = 0, Sl2 = 0;
    };
    TryAcc Tries[NumTries];
    for (TryAcc &T : Tries) {
      T.Dim = S.Spread[R.nextBounded(S.Spread.size())];
      T.Cut = R.nextUniform(S.Lo[size_t(T.Dim)], S.Hi[size_t(T.Dim)]);
    }
    size_t NumPts = S.Ys.size();
    for (TryAcc &T : Tries) {
      size_t ColIdx = 0;
      while (S.Spread[ColIdx] != T.Dim)
        ++ColIdx;
      double *Col = S.Cols.data() + ColIdx * NumPts;
      if (!S.ColDone[ColIdx]) {
        DataX.gatherColumn(size_t(T.Dim), S.Pts.data(), S.Pts.size(), Col);
        Col[NumPts - 1] = X[size_t(T.Dim)];
        S.ColDone[ColIdx] = 1;
      }
      uint32_t Nl = 0;
      double Sl = 0.0, Sl2 = 0.0;
      for (size_t I = 0; I != NumPts; ++I) {
        bool Left = Col[I] <= T.Cut;
        double Mask = Left ? 1.0 : 0.0;
        Nl += unsigned(Left);
        Sl += Mask * S.Ys[I];
        Sl2 += Mask * S.Y2s[I];
      }
      T.Nl = Nl;
      T.Sl = Sl;
      T.Sl2 = Sl2;
    }
    uint32_t TotalN = Eff.Count + 1;
    double TotalS = Eff.SumY + NewY;
    double TotalS2 = Eff.SumY2 + NewY * NewY;
    for (const TryAcc &T : Tries) {
      uint32_t Nr = TotalN - T.Nl;
      if (T.Nl < Config.MinLeafSize || Nr < Config.MinLeafSize)
        continue;
      double L = PriorTerm + logMarginal(T.Nl, T.Sl, T.Sl2) +
                 logMarginal(Nr, TotalS - T.Sl, TotalS2 - T.Sl2);
      if (L > BestL) {
        BestL = L;
        GrowDim = T.Dim;
        GrowCut = T.Cut;
      }
    }
    if (GrowDim >= 0)
      LGrow = BestL;
  }

  // --- Candidate: prune (only when the sibling is also a leaf) ----------
  double LPrune = -1e300;
  int32_t ParentIdx = P.T->Nodes[size_t(LeafIdx)].Parent;
  int32_t SiblingIdx = -1;
  if (ParentIdx >= 0) {
    const Node &Parent = P.T->Nodes[size_t(ParentIdx)];
    SiblingIdx = Parent.Left == LeafIdx ? Parent.Right : Parent.Left;
    if (P.T->Nodes[size_t(SiblingIdx)].Left < 0) {
      LeafStats Sib = leafStats(P, SiblingIdx);
      // Relative to stay, pruning trades the parent's split factor and the
      // two leaf marginals for one merged-leaf marginal; the leaf+new
      // marginal shared with LStay cancels in the sampling ratio.
      double PParent = splitProbability(D - 1);
      double PHere = splitProbability(D);
      LPrune = std::log(1.0 - PParent) - std::log(PParent) -
               2.0 * std::log(1.0 - PHere) +
               logMarginal(Eff.Count + Sib.Count + 1, Eff.SumY + Sib.SumY + NewY,
                           Eff.SumY2 + Sib.SumY2 + NewY * NewY) -
               logMarginal(Sib.Count, Sib.SumY, Sib.SumY2);
    }
  }

  // --- Sample the move --------------------------------------------------
  double MaxL = std::max(LStay, std::max(LGrow, LPrune));
  double WStay = std::exp(LStay - MaxL);
  double WGrow = GrowDim >= 0 ? std::exp(LGrow - MaxL) : 0.0;
  double WPrune = LPrune > -1e299 ? std::exp(LPrune - MaxL) : 0.0;
  double Total = WStay + WGrow + WPrune;
  double Draw = R.nextDouble() * Total;

  if (Draw < WGrow && GrowDim >= 0) {
    // Grow: the leaf becomes internal with two fresh children.  The
    // repartition reuses the scratch's packed gather — S.Pts holds the
    // leaf's points (pending included) in the pre-materialize traversal
    // order, with the new point appended below, so the order stays a
    // pure function of the particle's history.
    materialize(P);
    Tree &T = *P.T;
    int32_t L = int32_t(T.Nodes.size());
    int32_t Rr = L + 1;
    Node LeftChild, RightChild;
    LeftChild.Parent = LeafIdx;
    RightChild.Parent = LeafIdx;
    LeftChild.Depth = RightChild.Depth = uint16_t(D + 1);
    T.Nodes.push_back(LeftChild);
    T.Nodes.push_back(RightChild);
    pushBoundsSlot(T); // children's boxes fill in via absorbInto below
    pushBoundsSlot(T);
    for (uint32_t Pt : S.Pts) {
      bool GoesLeft = DataX.row(Pt)[GrowDim] <= GrowCut;
      absorbInto(T, GoesLeft ? L : Rr, Pt);
    }
    bool NewLeft = X[GrowDim] <= GrowCut;
    absorbInto(T, NewLeft ? L : Rr, PointIdx);
    Node &NewInternal = T.Nodes[size_t(LeafIdx)];
    NewInternal.Left = L;
    NewInternal.Right = Rr;
    NewInternal.SplitDim = int16_t(GrowDim);
    NewInternal.SplitValue = GrowCut;
    NewInternal.Count = 0;
    NewInternal.SumY = NewInternal.SumY2 = 0.0;
    // The old leaf's chunks become unreachable pool garbage; compaction is
    // not worth the bookkeeping (same policy as dead nodes below).
    NewInternal.PtsHead = -1;
    return;
  }

  if (Draw < WGrow + WPrune && WPrune > 0.0) {
    // Prune: the parent becomes a leaf holding both children's data.
    materialize(P); // flushes pending, so node stats below are effective
    Tree &T = *P.T;
    Node &Parent = T.Nodes[size_t(ParentIdx)];
    Node &Sibling = T.Nodes[size_t(SiblingIdx)];
    Node &Self = T.Nodes[size_t(LeafIdx)];
    Parent.Left = Parent.Right = -1;
    Parent.SplitDim = -1;
    Parent.Count = Self.Count + Sibling.Count;
    Parent.SumY = Self.SumY + Sibling.SumY;
    Parent.SumY2 = Self.SumY2 + Sibling.SumY2;
    // The merged leaf's box is the union of its children's boxes.
    {
      double *PLo = T.Bounds.data() + size_t(ParentIdx) * 2 * Dims;
      const double *ALo = T.Bounds.data() + size_t(LeafIdx) * 2 * Dims;
      const double *BLo = T.Bounds.data() + size_t(SiblingIdx) * 2 * Dims;
      for (size_t Dim = 0; Dim != Dims; ++Dim) {
        PLo[Dim] = std::min(ALo[Dim], BLo[Dim]);
        PLo[Dims + Dim] = std::max(ALo[Dims + Dim], BLo[Dims + Dim]);
      }
    }
    // Splice the two chunk lists (both privately owned after materialize).
    Parent.PtsHead = Self.PtsHead;
    if (Parent.PtsHead < 0) {
      Parent.PtsHead = Sibling.PtsHead;
    } else if (Sibling.PtsHead >= 0) {
      int32_t Tail = Self.PtsHead;
      while (T.Chunks[size_t(Tail)].Next >= 0)
        Tail = T.Chunks[size_t(Tail)].Next;
      T.Chunks[size_t(Tail)].Next = Sibling.PtsHead;
    }
    // Old child nodes become unreachable; absorb the new point and leave
    // them in place (compaction is not worth the bookkeeping).
    Self = Node();
    Sibling = Node();
    absorbInto(T, ParentIdx, PointIdx);
    return;
  }

  // Stay: the cheap, common case — defer the absorption so a tree shared
  // with resampling siblings need not be cloned at all.
  if (P.NumPending < MaxPending) {
    P.Pending[P.NumPending++] = {LeafIdx, PointIdx};
    return;
  }
  materialize(P);
  absorbInto(*P.T, LeafIdx, PointIdx);
}

void DynaTree::ingest(uint32_t PointIdx, bool Resample) {
  const double *X = DataX.row(PointIdx);
  double Y = DataY[PointIdx];
  size_t Np = Particles.size();

  // 1-2. Reweight by posterior predictive and resample (skipped during
  // batched seeding, and while the ensemble is still nearly empty — the
  // weights would all be equal).  Every alias of a unique-particle run
  // has the same weight by construction, so the leaf walk runs once per
  // run and fans its value out; resampling then sums bit-identical
  // weights in the same index order as the per-particle walk would.
  if (Resample && PointIdx >= 2) {
    std::vector<double> LogW(Np);
    shardedFor(Workers, uniqueRunCount(), ParticleShardSize,
               [&](size_t, size_t Begin, size_t End) {
                 for (size_t Run = Begin; Run != End; ++Run) {
                   const Particle &P = Particles[RunOffsets[Run]];
                   int32_t Leaf = findLeaf(*P.T, X);
                   double Lw = logPredictive(leafStats(P, Leaf), Y);
                   for (size_t I = RunOffsets[Run]; I != RunOffsets[Run + 1];
                        ++I)
                     LogW[I] = Lw;
                 }
               });
    resampleParticles(LogW);
    rebuildRunIndex(); // offspring of one parent alias contiguously
  }

  // 3-4. Propagate every particle with a local stay/prune/grow move, each
  // from its own counter-derived RNG stream.  Consecutive particles of
  // one run share their packed grow-scan scratch (the run index proves
  // the reuse bit-safe); the thread_local only amortizes allocations —
  // validity never crosses a shard boundary.
  uint64_t Step = StepCounter;
  shardedFor(Workers, Np, ParticleShardSize,
             [&](size_t, size_t Begin, size_t End) {
               thread_local GrowScratch Scratch;
               Scratch.Valid = false;
               for (size_t I = Begin; I != End; ++I) {
                 Rng R = particleRng(Step, I);
                 bool Reuse = I != Begin && RunOf[I] == RunOf[I - 1];
                 propagate(Particles[I], PointIdx, R, Scratch, Reuse);
               }
             });
  ++StepCounter;
  rebuildRunIndex(); // movers split off; stayers keep aliasing
}

//===----------------------------------------------------------------------===//
// Public interface
//===----------------------------------------------------------------------===//

void DynaTree::fit(const FlatRows &X, const std::vector<double> &Y) {
  assert(X.size() == Y.size() && !X.empty() && "bad training batch");
  DataX = X;
  DataY = Y;
  Dims = DataX.dim();
  Particles.clear();
  StepCounter = 0;
  LastEss = double(Config.NumParticles);

  // Empirical prior from the seed batch.
  double Sum = 0.0, Sum2 = 0.0;
  for (double Yi : Y) {
    Sum += Yi;
    Sum2 += Yi * Yi;
  }
  double N = double(Y.size());
  PriorMean = Sum / N;
  double Var = N > 1 ? std::max(1e-12, (Sum2 - Sum * Sum / N) / (N - 1))
                     : 1.0;
  // E[sigma^2] = B0/(A0-1) == PriorScaleFactor * seed variance: the prior
  // expects leaves to explain most of the global variance.
  PriorScale = Config.PriorScaleFactor * Var * (Config.PriorShape - 1.0);
  LogGammaA0 = logGamma(Config.PriorShape);
  LogB0 = std::log(PriorScale);
  LogK0 = std::log(Config.PriorKappa);
  ensureMarginalTables(Y.size() + 2);

  // Batched seed ingestion: all particles share ONE empty root tree
  // (copy-on-write makes that a single allocation for the whole
  // ensemble), and seed points are propagated without reweighting or
  // resampling — the ensemble must not be culled against a half-built
  // posterior.  SMC reweighting starts with the first update().
  auto Root = std::make_shared<Tree>();
  Root->Nodes.emplace_back();
  pushBoundsSlot(*Root);
  Particles.assign(Config.NumParticles, Particle());
  for (Particle &P : Particles)
    P.T = Root;
  rebuildRunIndex(); // one run: the whole ensemble aliases Root

  for (uint32_t I = 0; I != uint32_t(X.size()); ++I)
    ingest(I, /*Resample=*/false);
}

void DynaTree::update(RowRef X, double Y) {
  assert(!Particles.empty() && "fit() must seed the model first");
  uint32_t PointIdx = uint32_t(DataY.size());
  DataX.push(X);
  DataY.push_back(Y);
  ensureMarginalTables(DataY.size() + 2);
  ingest(PointIdx, /*Resample=*/true);
}

Prediction DynaTree::predict(RowRef X) const {
  assert(!Particles.empty() && "model not fitted");
  const double *Xp = X.data();
  // Mixture over particles; variance via the law of total variance.
  // Every alias of a unique-particle run lands the probe in the same
  // leaf with the same effective stats, so each run is walked once and
  // its accumulation repeated per alias — the sums receive the very same
  // addends in the very same index order as a per-particle walk, hence
  // stay bit-identical to it.
  double MeanSum = 0.0, VarSum = 0.0, Mean2Sum = 0.0;
  for (size_t Run = 0; Run + 1 < RunOffsets.size(); ++Run) {
    const Particle &P = Particles[RunOffsets[Run]];
    int32_t Leaf = findLeaf(*P.T, Xp);
    Prediction LeafP = leafPredictive(leafStats(P, Leaf));
    double Mean2 = LeafP.Mean * LeafP.Mean;
    for (size_t I = RunOffsets[Run]; I != RunOffsets[Run + 1]; ++I) {
      MeanSum += LeafP.Mean;
      VarSum += LeafP.Variance;
      Mean2Sum += Mean2;
    }
  }
  double Np = double(Particles.size());
  Prediction Out;
  Out.Mean = MeanSum / Np;
  Out.Variance = VarSum / Np + Mean2Sum / Np - Out.Mean * Out.Mean;
  if (Out.Variance < 0.0)
    Out.Variance = 0.0;
  return Out;
}

std::vector<double> DynaTree::almScores(const FlatRows &Candidates,
                                        const ScoreContext &Ctx) const {
  assert(!Particles.empty() && "model not fitted");
  // Sharded predict() per candidate — predict() itself dedupes by unique
  // run; this override only adds the instrumentation accounting.
  std::vector<double> Scores = SurrogateModel::almScores(Candidates, Ctx);
  if (Ctx.Stats) {
    Ctx.Stats->CandidatesScored.fetch_add(Candidates.size(),
                                          std::memory_order_relaxed);
    Ctx.Stats->ParticleTerms.fetch_add(uint64_t(Candidates.size()) *
                                           Particles.size(),
                                       std::memory_order_relaxed);
    Ctx.Stats->UniqueLeafWalks.fetch_add(uint64_t(Candidates.size()) *
                                             uniqueRunCount(),
                                         std::memory_order_relaxed);
  }
  return Scores;
}

std::vector<double> DynaTree::alcScores(const FlatRows &Candidates,
                                        const FlatRows &Reference,
                                        const ScoreContext &Ctx) const {
  assert(!Particles.empty() && "model not fitted");
  // Each candidate's score is the particle average of refCount(leaf) *
  // expected variance drop — the closed form of Cohn's ALC under constant
  // leaves.  The reference occupancy of every tree's leaves is
  // candidate-independent, so it is computed once up front (one disjoint
  // write per unique run — aliases share the counts); candidates then
  // accumulate over particles in index order, repeating each run's term
  // per alias, which matches a per-particle summation bit-for-bit.
  size_t Np = Particles.size();
  size_t NumGroups = uniqueRunCount();
  std::vector<std::vector<uint32_t>> RefCounts(NumGroups);
  shardedFor(Ctx.Pool, NumGroups, 8, [&](size_t, size_t Begin, size_t End) {
    for (size_t G = Begin; G != End; ++G) {
      const Particle &P = Particles[RunOffsets[G]];
      RefCounts[G].assign(P.T->Nodes.size(), 0);
      for (size_t R = 0; R != Reference.size(); ++R)
        ++RefCounts[G][size_t(findLeaf(*P.T, Reference.row(R)))];
    }
  });

  std::vector<double> Scores(Candidates.size(), 0.0);
  shardedFor(Ctx.Pool, Candidates.size(), Ctx.ShardSize,
             [&](size_t, size_t Begin, size_t End) {
    for (size_t C = Begin; C != End; ++C) {
      const double *Row = Candidates.row(C);
      double Total = 0.0;
      for (size_t G = 0; G != NumGroups; ++G) {
        const Particle &P = Particles[RunOffsets[G]];
        int32_t Leaf = findLeaf(*P.T, Row);
        uint32_t Count = RefCounts[G][size_t(Leaf)];
        if (Count == 0)
          continue;
        double Term = double(Count) * leafVarianceDrop(leafStats(P, Leaf));
        for (size_t I = RunOffsets[G]; I != RunOffsets[G + 1]; ++I)
          Total += Term;
      }
      Scores[C] = Total / double(Np);
    }
  });
  if (Ctx.Stats) {
    // Both phases count: the per-candidate walks and the reference pass.
    uint64_t NaiveWalks =
        uint64_t(Np) * (Candidates.size() + Reference.size());
    uint64_t DoneWalks =
        uint64_t(NumGroups) * (Candidates.size() + Reference.size());
    Ctx.Stats->CandidatesScored.fetch_add(Candidates.size(),
                                          std::memory_order_relaxed);
    Ctx.Stats->ParticleTerms.fetch_add(NaiveWalks, std::memory_order_relaxed);
    Ctx.Stats->UniqueLeafWalks.fetch_add(DoneWalks,
                                         std::memory_order_relaxed);
  }
  return Scores;
}

double DynaTree::averageLeafCount() const {
  // One full node-array walk per unique run instead of per particle
  // (aliases share tree and pending, so their leaf census is equal);
  // the per-alias repeat-add keeps the mean bit-identical to the naive
  // per-particle walk.
  double Total = 0.0;
  for (size_t Run = 0; Run + 1 < RunOffsets.size(); ++Run) {
    const Particle &P = Particles[RunOffsets[Run]];
    unsigned Leaves = 0;
    const std::vector<Node> &Nodes = P.T->Nodes;
    for (size_t I = 0; I != Nodes.size(); ++I) {
      const Node &N = Nodes[I];
      if (N.Left >= 0)
        continue;
      uint32_t EffCount = leafStats(P, int32_t(I)).Count;
      if (EffCount > 0 || N.Parent >= 0 || Nodes.size() == 1)
        ++Leaves;
    }
    for (size_t I = RunOffsets[Run]; I != RunOffsets[Run + 1]; ++I)
      Total += double(Leaves);
  }
  return Total / double(Particles.size());
}

double DynaTree::averageDepth() const {
  double Total = 0.0;
  for (size_t Run = 0; Run + 1 < RunOffsets.size(); ++Run) {
    unsigned MaxDepth = 0;
    for (const Node &N : Particles[RunOffsets[Run]].T->Nodes)
      if (N.Left < 0)
        MaxDepth = std::max(MaxDepth, unsigned(N.Depth));
    for (size_t I = RunOffsets[Run]; I != RunOffsets[Run + 1]; ++I)
      Total += double(MaxDepth);
  }
  return Total / double(Particles.size());
}
