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
  static_assert(MinLeafSize >= 1, "leaves need at least one observation");
  assert(Config.NumParticles >= 1 && "need at least one particle");
}

double DynaTree::splitProbability(unsigned Depth) const {
  return SplitAlpha * std::pow(1.0 + double(Depth), -SplitBeta);
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
    LogGammaAnTable.push_back(logGamma(PriorShape + 0.5 * double(N)));
    LogKnTable.push_back(std::log(PriorKappa + double(N)));
    // Df spelled as posteriorOf() and logPredictive() spell it, and the
    // normalizer as studentTPdf() does.
    double Df = 2.0 * (PriorShape + 0.5 * double(N));
    LogStudentTNormTable.push_back(logGamma(0.5 * (Df + 1.0)) -
                                   logGamma(0.5 * Df) -
                                   0.5 * std::log(Df * M_PI));
    double Pd = splitProbability(unsigned(N));
    LogSplitTable.push_back(std::log(Pd));
    Log1mSplitTable.push_back(std::log(1.0 - Pd));
  }
}

double DynaTree::logMarginal(uint32_t N, double SumY, double SumY2) const {
  if (N == 0)
    return 0.0;
  assert(N < LogGammaAnTable.size() && "marginal tables not extended");
  double K0 = PriorKappa;
  double A0 = PriorShape;
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
  LeafPosterior P = posteriorOf(S.Count, S.SumY, S.SumY2, PriorKappa,
                                PriorShape, PriorScale, PriorMean);
  // Student-t with df = 2*An, location Mn, scale^2 = Bn (Kn+1) / (An Kn):
  // studentTPdf()'s arithmetic, with its count-only log normalizer read
  // from the table.
  assert(S.Count < LogStudentTNormTable.size() && "t tables not extended");
  double Df = 2.0 * P.An;
  double Scale2 = P.Bn * (P.Kn + 1.0) / (P.An * P.Kn);
  double Scale = std::sqrt(Scale2);
  double Z = (Y - P.Mn) / Scale;
  double Pdf = std::exp(LogStudentTNormTable[S.Count] -
                        0.5 * (Df + 1.0) * std::log1p(Z * Z / Df));
  return std::log(Pdf / Scale);
}

Prediction DynaTree::leafPredictive(const LeafStats &S) const {
  LeafPosterior P = posteriorOf(S.Count, S.SumY, S.SumY2, PriorKappa,
                                PriorShape, PriorScale, PriorMean);
  double Df = 2.0 * P.An;
  double Scale2 = P.Bn * (P.Kn + 1.0) / (P.An * P.Kn);
  Prediction Out;
  Out.Mean = P.Mn;
  Out.Variance = Df > 2.0 ? Scale2 * Df / (Df - 2.0) : Scale2 * 3.0;
  return Out;
}

double DynaTree::leafVarianceDrop(const LeafStats &S) const {
  LeafPosterior P = posteriorOf(S.Count, S.SumY, S.SumY2, PriorKappa,
                                PriorShape, PriorScale, PriorMean);
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
  const Node *Nodes = T.Nodes.data();
  int32_t Idx = 0;
  while (Nodes[Idx].Left >= 0) {
    const Node &N = Nodes[Idx];
    // All ones when the row goes left; a NaN compares false and goes right.
    int32_t Left = -int32_t(X[N.SplitDim] <= N.SplitValue);
    Idx = N.Right ^ ((N.Left ^ N.Right) & Left);
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

size_t DynaTree::livePreorder(const Tree &T, std::vector<int32_t> &Order) {
  thread_local std::vector<int32_t> Stack;
  Order.clear();
  Stack.assign(1, 0);
  size_t NumChunks = 0;
  while (!Stack.empty()) {
    int32_t Idx = Stack.back();
    Stack.pop_back();
    Order.push_back(Idx);
    const Node &N = T.Nodes[size_t(Idx)];
    if (N.Left >= 0) {
      Stack.push_back(N.Right);
      Stack.push_back(N.Left);
    }
    for (int32_t C = N.PtsHead; C >= 0; C = T.Chunks[size_t(C)].Next)
      ++NumChunks;
  }
  return NumChunks;
}

void DynaTree::compact(Tree &T) const {
  // Count first, so the rebuilt arenas are allocated once at their exact
  // sizes.
  thread_local std::vector<int32_t> Order, NewIdx;
  size_t NumChunks = livePreorder(T, Order);
  NewIdx.resize(T.Nodes.size());
  for (size_t I = 0; I != Order.size(); ++I)
    NewIdx[size_t(Order[I])] = int32_t(I);

  Tree Out;
  Out.Lineage = T.Lineage;
  Out.Nodes.reserve(Order.size());
  Out.Chunks.reserve(NumChunks);
  Out.Bounds.reserve(Order.size() * 2 * Dims);
  for (int32_t Old : Order) {
    Node N = T.Nodes[size_t(Old)];
    if (N.Parent >= 0)
      N.Parent = NewIdx[size_t(N.Parent)];
    if (N.Left >= 0) {
      N.Left = NewIdx[size_t(N.Left)];
      N.Right = NewIdx[size_t(N.Right)];
    }
    // Copy the chunk list head first, the order forEachLeafPoint walks.
    int32_t OldChunk = N.PtsHead;
    int32_t *Link = &N.PtsHead;
    for (; OldChunk >= 0; OldChunk = T.Chunks[size_t(OldChunk)].Next) {
      *Link = int32_t(Out.Chunks.size());
      Out.Chunks.push_back(T.Chunks[size_t(OldChunk)]);
      Link = &Out.Chunks.back().Next; // stable: the arena is pre-sized
    }
    *Link = -1;
    Out.Nodes.push_back(N);
    auto Box = T.Bounds.begin() + ptrdiff_t(size_t(Old) * 2 * Dims);
    Out.Bounds.insert(Out.Bounds.end(), Box, Box + ptrdiff_t(2 * Dims));
  }
  T = std::move(Out);
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

namespace {
/// Two doubles, one grow try per lane (the GCC/Clang vector extension:
/// element-wise arithmetic and comparisons, SSE2 on x86-64).
typedef double TryLanes __attribute__((vector_size(16)));
} // namespace

void DynaTree::scoreGrowTries(const Particle &P, int32_t LeafIdx,
                              uint32_t PointIdx,
                              GrowTry (&Tries)[NumGrowTries]) const {
  static_assert(NumGrowTries == 4, "the scan holds the tries in two vectors");
  const size_t D0 = size_t(Tries[0].Dim), D1 = size_t(Tries[1].Dim);
  const size_t D2 = size_t(Tries[2].Dim), D3 = size_t(Tries[3].Dim);
  const TryLanes CutA = {Tries[0].Cut, Tries[1].Cut};
  const TryLanes CutB = {Tries[2].Cut, Tries[3].Cut};
  // A comparison yields all-ones lanes where it holds: subtracting it
  // counts the points sent left, and ANDing Y with it adds Y there and
  // +0.0 elsewhere.  A scalar scan of one try adding Mask * Y would add
  // -0.0 for a negative (finite) Y on the right instead; that cannot
  // change a sum, which starts at +0.0, never becomes -0.0 under
  // round-to-nearest, and is unchanged by adding a zero of either sign.
  // So each lane is bitwise that scan.
  using LaneMask = decltype(CutA <= CutB);
  LaneMask NlA = {0, 0}, NlB = {0, 0};
  TryLanes SlA = {0.0, 0.0}, SlB = {0.0, 0.0};
  TryLanes Sl2A = {0.0, 0.0}, Sl2B = {0.0, 0.0};
  auto Add = [&](uint32_t Pt) {
    const double *Row = DataX.row(Pt);
    double Y = DataY[Pt];
    double Y2 = Y * Y;
    const TryLanes XA = {Row[D0], Row[D1]};
    const TryLanes XB = {Row[D2], Row[D3]};
    const TryLanes Ys = {Y, Y};
    const TryLanes Y2s = {Y2, Y2};
    auto LeftA = XA <= CutA;
    auto LeftB = XB <= CutB;
    NlA -= LeftA;
    NlB -= LeftB;
    SlA += (TryLanes)((LaneMask)Ys & LeftA);
    SlB += (TryLanes)((LaneMask)Ys & LeftB);
    Sl2A += (TryLanes)((LaneMask)Y2s & LeftA);
    Sl2B += (TryLanes)((LaneMask)Y2s & LeftB);
  };
  forEachLeafPoint(P, LeafIdx, Add);
  Add(PointIdx); // the new point, last
  for (unsigned K = 0; K != 2; ++K) {
    Tries[K].Nl = uint32_t(NlA[K]);
    Tries[K].Sl = SlA[K];
    Tries[K].Sl2 = Sl2A[K];
    Tries[K + 2].Nl = uint32_t(NlB[K]);
    Tries[K + 2].Sl = SlB[K];
    Tries[K + 2].Sl2 = Sl2B[K];
  }
}

void DynaTree::propagate(Particle &P, uint32_t PointIdx, Rng &R,
                         GrowScratch &S, bool ReuseScan, uint64_t NewLineage) {
  const double *X = DataX.row(PointIdx);
  double NewY = DataY[PointIdx];

  // Candidate-independent preamble — leaf location, effective stats and
  // bounds.  Every alias of a unique-particle run (same tree, same
  // pending list) computes the exact same values here, so the caller lets
  // consecutive aliases reuse the scratch: only the RNG draws below
  // differ between them.  Siblings cannot invalidate the cache mid-run —
  // a clone never touches the shared tree, in-place materialization
  // requires sole ownership (and a pending alias still holds a
  // reference), and a sibling's "stay" only appends to its *own* pending
  // list.
  if (!ReuseScan)
    S.Valid = false;
  if (!S.Valid) {
    S.LeafIdx = findLeaf(*P.T, X);
    S.Eff = leafStats(P, S.LeafIdx);
    S.LStay = logMarginal(S.Eff.Count + 1, S.Eff.SumY + NewY,
                          S.Eff.SumY2 + NewY * NewY);
    S.CanGrow = S.Eff.Count + 1 >= 2 * MinLeafSize;
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
    double BestL = -1e300;
    assert(D + 1 < LogSplitTable.size() && "split tables not extended");
    double PriorTerm = LogSplitTable[D] + 2.0 * Log1mSplitTable[D + 1] -
                       Log1mSplitTable[D];
    // Draw every (dimension, cut) proposal first, then score them all in
    // one pass over the leaf.
    GrowTry Tries[NumGrowTries];
    for (GrowTry &T : Tries) {
      T.Dim = S.Spread[R.nextBounded(S.Spread.size())];
      T.Cut = R.nextUniform(S.Lo[size_t(T.Dim)], S.Hi[size_t(T.Dim)]);
    }
    scoreGrowTries(P, LeafIdx, PointIdx, Tries);
    uint32_t TotalN = Eff.Count + 1;
    double TotalS = Eff.SumY + NewY;
    double TotalS2 = Eff.SumY2 + NewY * NewY;
    for (const GrowTry &T : Tries) {
      uint32_t Nr = TotalN - T.Nl;
      if (T.Nl < MinLeafSize || Nr < MinLeafSize)
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
      // marginal shared with LStay cancels in the sampling ratio.  A leaf
      // with a parent has D >= 1.
      LPrune = Log1mSplitTable[D - 1] - LogSplitTable[D - 1] -
               2.0 * Log1mSplitTable[D] +
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
    // repartition takes the leaf's points (pending included) in the
    // pre-materialize traversal order, with the new point appended
    // below, so the order stays a pure function of the particle's
    // history.
    thread_local std::vector<uint32_t> Pts;
    Pts.clear();
    forEachLeafPoint(P, LeafIdx, [](uint32_t Pt) { Pts.push_back(Pt); });
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
    for (uint32_t Pt : Pts) {
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
    NewInternal.PtsHead = -1;
    compact(T); // drops the old leaf's chunks
    T.Lineage = NewLineage;
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
    absorbInto(T, ParentIdx, PointIdx);
    compact(T); // drops the two child nodes
    T.Lineage = T.Nodes.size() == 1 ? 0 : NewLineage;
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
  // one run share their leaf, stats and bounds scratch (the run index
  // proves the reuse bit-safe); the thread_local only amortizes
  // allocations — validity never crosses a shard boundary.
  uint64_t Step = StepCounter;
  shardedFor(Workers, Np, ParticleShardSize,
             [&](size_t, size_t Begin, size_t End) {
               thread_local GrowScratch Scratch;
               Scratch.Valid = false;
               for (size_t I = Begin; I != End; ++I) {
                 Rng R = particleRng(Step, I);
                 bool Reuse = I != Begin && RunOf[I] == RunOf[I - 1];
                 propagate(Particles[I], PointIdx, R, Scratch, Reuse,
                           freshLineage(Step, I));
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
  PriorScale = PriorScaleFactor * Var * (PriorShape - 1.0);
  LogGammaA0 = logGamma(PriorShape);
  LogB0 = std::log(PriorScale);
  LogK0 = std::log(PriorKappa);
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

std::vector<size_t> DynaTree::runNodeBases() const {
  size_t NumRuns = uniqueRunCount();
  std::vector<size_t> Base(NumRuns + 1, 0);
  for (size_t Run = 0; Run != NumRuns; ++Run)
    Base[Run + 1] = Base[Run] + Particles[RunOffsets[Run]].T->Nodes.size();
  return Base;
}

DynaTree::LineageGroups DynaTree::lineageGroups() const {
  size_t NumRuns = uniqueRunCount();
  std::vector<std::pair<uint64_t, uint32_t>> Keys(NumRuns);
  for (size_t Run = 0; Run != NumRuns; ++Run)
    Keys[Run] = {Particles[RunOffsets[Run]].T->Lineage, uint32_t(Run)};
  std::sort(Keys.begin(), Keys.end());
  LineageGroups Lin;
  Lin.Of.resize(NumRuns);
  Lin.Runs.resize(NumRuns);
  for (size_t I = 0; I != NumRuns; ++I) {
    uint32_t Run = Keys[I].second;
    if (I == 0 || Keys[I].first != Keys[I - 1].first) {
      Lin.Offsets.push_back(uint32_t(I));
      Lin.Trees.push_back(Particles[RunOffsets[Run]].T.get());
    }
    Lin.Runs[I] = Run;
    Lin.Of[Run] = uint32_t(Lin.Trees.size() - 1);
  }
  Lin.Offsets.push_back(uint32_t(NumRuns));
  return Lin;
}

void DynaTree::walkLineages(const LineageGroups &Lin, const FlatRows &Rows,
                            size_t Begin, size_t End, size_t Stride,
                            int32_t *Out) const {
  for (const Tree *T : Lin.Trees) {
    for (size_t R = Begin; R != End; ++R)
      Out[R - Begin] = findLeaf(*T, Rows.row(R));
    Out += Stride;
  }
}

namespace {
/// Two rows' sums side by side, one per lane (the GCC/Clang vector
/// extension, SSE2 on x86-64): each lane receives exactly the addends of
/// its row's scalar sum, in the same order.
typedef double RowPair __attribute__((vector_size(16)));

/// Rows a scoring shard sums together, in two RowPairs: four independent
/// add chains hide the add latency of a long run's repeated terms.
constexpr size_t RowBlock = 4;
static_assert(RowBlock == 2 * sizeof(RowPair) / sizeof(double),
              "the scoring loops hold a row block in two RowPairs");

/// \p Len rounded up to whole row blocks.  The padding lanes read leaf 0,
/// whose table entry always exists, and their sums are dropped.
size_t paddedRows(size_t Len) {
  return (Len + RowBlock - 1) / RowBlock * RowBlock;
}

/// One leaf's contribution to the particle mixture: predict()'s three
/// per-particle addends.
struct LeafMoments {
  double Mean = 0.0, Variance = 0.0, Mean2 = 0.0;
};

/// The mixture's mean and variance (law of total variance) from the
/// per-particle sums; predict() and mixtureBatch() share it so their
/// outputs stay bitwise equal.
Prediction mixtureOf(double MeanSum, double VarSum, double Mean2Sum,
                     size_t NumParticles) {
  double Np = double(NumParticles);
  Prediction Out;
  Out.Mean = MeanSum / Np;
  Out.Variance = VarSum / Np + Mean2Sum / Np - Out.Mean * Out.Mean;
  if (Out.Variance < 0.0)
    Out.Variance = 0.0;
  return Out;
}
} // namespace

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
  return mixtureOf(MeanSum, VarSum, Mean2Sum, Particles.size());
}

size_t DynaTree::mixtureBatch(const FlatRows &Rows, size_t Count,
                              const ScoreContext &Ctx, Prediction *Out) const {
  assert(!Particles.empty() && "model not fitted");
  assert(Count <= Rows.size() && "batch count out of range");
  size_t NumRuns = uniqueRunCount();
  LineageGroups Lin = lineageGroups();
  std::vector<size_t> Base = runNodeBases();
  std::vector<LeafMoments> Table(Base[NumRuns]);
  shardedFor(Workers, NumRuns, 8, [&](size_t, size_t Begin, size_t End) {
    for (size_t G = Begin; G != End; ++G) {
      const Particle &P = Particles[RunOffsets[G]];
      const std::vector<Node> &Nodes = P.T->Nodes;
      for (size_t I = 0; I != Nodes.size(); ++I) {
        if (Nodes[I].Left >= 0)
          continue;
        Prediction LeafP = leafPredictive(leafStats(P, int32_t(I)));
        Table[Base[G] + I] = {LeafP.Mean, LeafP.Variance,
                              LeafP.Mean * LeafP.Mean};
      }
    }
  });

  // Each shard walks its rows once per lineage, then adds every run's
  // looked-up moments once per alias, runs in particle order: each row's
  // sums get predict()'s addends in predict()'s order.
  shardedFor(Workers, Count, Ctx.ShardSize,
             [&](size_t, size_t Begin, size_t End) {
    size_t Len = End - Begin, Stride = paddedRows(Len);
    std::vector<int32_t> Leaves(Lin.size() * Stride, 0);
    walkLineages(Lin, Rows, Begin, End, Stride, Leaves.data());
    for (size_t C = 0; C < Len; C += RowBlock) {
      RowPair MeanA = {}, MeanB = {}, VarA = {}, VarB = {}, Mean2A = {},
              Mean2B = {};
      for (size_t G = 0; G != NumRuns; ++G) {
        const int32_t *Leaf = Leaves.data() + size_t(Lin.Of[G]) * Stride + C;
        const LeafMoments *Run = Table.data() + Base[G];
        const LeafMoments &L0 = Run[Leaf[0]], &L1 = Run[Leaf[1]],
                          &L2 = Run[Leaf[2]], &L3 = Run[Leaf[3]];
        RowPair MA = {L0.Mean, L1.Mean}, MB = {L2.Mean, L3.Mean};
        RowPair VA = {L0.Variance, L1.Variance};
        RowPair VB = {L2.Variance, L3.Variance};
        RowPair M2A = {L0.Mean2, L1.Mean2}, M2B = {L2.Mean2, L3.Mean2};
        for (size_t I = RunOffsets[G]; I != RunOffsets[G + 1]; ++I) {
          MeanA += MA;
          MeanB += MB;
          VarA += VA;
          VarB += VB;
          Mean2A += M2A;
          Mean2B += M2B;
        }
      }
      double Mean[RowBlock] = {MeanA[0], MeanA[1], MeanB[0], MeanB[1]};
      double Var[RowBlock] = {VarA[0], VarA[1], VarB[0], VarB[1]};
      double Mean2[RowBlock] = {Mean2A[0], Mean2A[1], Mean2B[0], Mean2B[1]};
      for (size_t K = 0; K != RowBlock && C + K != Len; ++K)
        Out[Begin + C + K] =
            mixtureOf(Mean[K], Var[K], Mean2[K], Particles.size());
    }
  });
  return Lin.size();
}

void DynaTree::predictBatch(const FlatRows &X, size_t Count,
                            Prediction *Out) const {
  mixtureBatch(X, Count, ScoreContext(), Out);
}

std::vector<double> DynaTree::almScores(const FlatRows &Candidates,
                                        const ScoreContext &Ctx) const {
  // predict()'s variance per candidate.
  std::vector<Prediction> Mixture(Candidates.size());
  size_t NumLineages =
      mixtureBatch(Candidates, Candidates.size(), Ctx, Mixture.data());
  std::vector<double> Scores(Candidates.size());
  for (size_t C = 0; C != Candidates.size(); ++C)
    Scores[C] = Mixture[C].Variance;
  if (Ctx.Stats) {
    Ctx.Stats->CandidatesScored.fetch_add(Candidates.size(),
                                          std::memory_order_relaxed);
    Ctx.Stats->ParticleTerms.fetch_add(uint64_t(Candidates.size()) *
                                           Particles.size(),
                                       std::memory_order_relaxed);
    Ctx.Stats->UniqueLeafWalks.fetch_add(uint64_t(Candidates.size()) *
                                             NumLineages,
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
  // leaves.  The counts depend on the splits only, so the reference rows
  // are walked once per lineage; each run of the lineage then scales the
  // counts by its own leaves' drops into one flat (run, leaf) table (one
  // disjoint slice per unique run — aliases share it).  Candidates look
  // their leaf's term up and accumulate over particles in index order,
  // repeating each run's term per alias, which matches a per-particle
  // summation bit-for-bit.
  size_t Np = Particles.size();
  size_t NumRuns = uniqueRunCount();
  LineageGroups Lin = lineageGroups();
  std::vector<size_t> Base = runNodeBases();
  std::vector<double> Terms(Base[NumRuns], 0.0);
  shardedFor(Workers, Lin.size(), 8, [&](size_t, size_t Begin, size_t End) {
    std::vector<double> Counts;
    for (size_t L = Begin; L != End; ++L) {
      // Count first (exact in a double), then scale each occupied leaf:
      // Count * leafVarianceDrop, the per-(candidate, run) product.
      const Tree &T = *Lin.Trees[L];
      Counts.assign(T.Nodes.size(), 0.0);
      for (size_t R = 0; R != Reference.size(); ++R)
        Counts[size_t(findLeaf(T, Reference.row(R)))] += 1.0;
      for (uint32_t K = Lin.Offsets[L]; K != Lin.Offsets[L + 1]; ++K) {
        size_t G = Lin.Runs[K];
        const Particle &P = Particles[RunOffsets[G]];
        double *Term = Terms.data() + Base[G];
        for (size_t I = 0; I != Counts.size(); ++I)
          if (Counts[I] != 0.0)
            Term[I] = Counts[I] * leafVarianceDrop(leafStats(P, int32_t(I)));
      }
    }
  });

  std::vector<double> Scores(Candidates.size(), 0.0);
  shardedFor(Workers, Candidates.size(), Ctx.ShardSize,
             [&](size_t, size_t Begin, size_t End) {
    size_t Len = End - Begin, Stride = paddedRows(Len);
    std::vector<int32_t> Leaves(Lin.size() * Stride, 0);
    walkLineages(Lin, Candidates, Begin, End, Stride, Leaves.data());
    for (size_t C = 0; C < Len; C += RowBlock) {
      // A leaf without reference points reads +0.0, which adds nothing:
      // a total starts at +0.0 and never becomes -0.0.
      RowPair TotalA = {}, TotalB = {};
      for (size_t G = 0; G != NumRuns; ++G) {
        const int32_t *Leaf = Leaves.data() + size_t(Lin.Of[G]) * Stride + C;
        const double *Run = Terms.data() + Base[G];
        RowPair TermA = {Run[Leaf[0]], Run[Leaf[1]]};
        RowPair TermB = {Run[Leaf[2]], Run[Leaf[3]]};
        for (size_t I = RunOffsets[G]; I != RunOffsets[G + 1]; ++I) {
          TotalA += TermA;
          TotalB += TermB;
        }
      }
      double Total[RowBlock] = {TotalA[0], TotalA[1], TotalB[0], TotalB[1]};
      for (size_t K = 0; K != RowBlock && C + K != Len; ++K)
        Scores[Begin + C + K] = Total[K] / double(Np);
    }
  });
  if (Ctx.Stats) {
    // Both phases count: the per-candidate walks and the reference pass.
    uint64_t Rows = Candidates.size() + Reference.size();
    Ctx.Stats->CandidatesScored.fetch_add(Candidates.size(),
                                          std::memory_order_relaxed);
    Ctx.Stats->ParticleTerms.fetch_add(uint64_t(Np) * Rows,
                                       std::memory_order_relaxed);
    Ctx.Stats->UniqueLeafWalks.fetch_add(uint64_t(Lin.size()) * Rows,
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
    unsigned Leaves = 0;
    for (const Node &N : Particles[RunOffsets[Run]].T->Nodes)
      Leaves += N.Left < 0;
    for (size_t I = RunOffsets[Run]; I != RunOffsets[Run + 1]; ++I)
      Total += double(Leaves);
  }
  return Total / double(Particles.size());
}

DynaTree::TreeCensus DynaTree::treeCensus() const {
  std::vector<const Tree *> Trees;
  Trees.reserve(Particles.size());
  for (const Particle &P : Particles)
    Trees.push_back(P.T.get());
  std::sort(Trees.begin(), Trees.end());
  Trees.erase(std::unique(Trees.begin(), Trees.end()), Trees.end());

  TreeCensus Out;
  Out.Trees = Trees.size();
  std::vector<int32_t> Order;
  for (const Tree *T : Trees) {
    size_t Chunks = livePreorder(*T, Order);
    Out.LiveNodes += Order.size();
    Out.DeadNodes += T->Nodes.size() - Order.size();
    Out.LiveChunks += Chunks;
    Out.DeadChunks += T->Chunks.size() - Chunks;
    Out.TreeBytes += T->Nodes.capacity() * sizeof(Node) +
                     T->Chunks.capacity() * sizeof(PtsChunk) +
                     T->Bounds.capacity() * sizeof(double);
  }
  return Out;
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
