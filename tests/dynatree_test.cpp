//===- tests/dynatree_test.cpp - dynamic-tree model tests -----*- C++ -*-===//

#include "dynatree/DynaTree.h"
#include "stats/Distributions.h"
#include "support/Rng.h"
#include "support/Scheduler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>

using namespace alic;

namespace alic {

/// The per-particle scoring walk that unique-run deduplication replaces:
/// every particle walks every probe itself.  DynaTree's predict, ALM and
/// ALC must match it bit-for-bit on any ensemble state.
class DynaTreeNaiveReference {
public:
  explicit DynaTreeNaiveReference(const DynaTree &M) : M(M) {}

  Prediction predict(RowRef X) const {
    double MeanSum = 0.0, VarSum = 0.0, Mean2Sum = 0.0;
    for (const DynaTree::Particle &P : M.Particles) {
      int32_t Leaf = M.findLeaf(*P.T, X.data());
      Prediction LeafP = M.leafPredictive(M.leafStats(P, Leaf));
      MeanSum += LeafP.Mean;
      VarSum += LeafP.Variance;
      Mean2Sum += LeafP.Mean * LeafP.Mean;
    }
    double Np = double(M.Particles.size());
    Prediction Out;
    Out.Mean = MeanSum / Np;
    Out.Variance = VarSum / Np + Mean2Sum / Np - Out.Mean * Out.Mean;
    if (Out.Variance < 0.0)
      Out.Variance = 0.0;
    return Out;
  }

  std::vector<double> almScores(const FlatRows &Candidates) const {
    std::vector<double> Scores(Candidates.size());
    for (size_t C = 0; C != Candidates.size(); ++C)
      Scores[C] = predict(Candidates[C]).Variance;
    return Scores;
  }

  std::vector<double> alcScores(const FlatRows &Candidates,
                                const FlatRows &Reference) const {
    const auto &Particles = M.Particles;
    std::vector<std::vector<uint32_t>> RefCounts(Particles.size());
    for (size_t P = 0; P != Particles.size(); ++P) {
      RefCounts[P].assign(Particles[P].T->Nodes.size(), 0);
      for (size_t R = 0; R != Reference.size(); ++R)
        ++RefCounts[P][size_t(M.findLeaf(*Particles[P].T, Reference.row(R)))];
    }
    std::vector<double> Scores(Candidates.size());
    for (size_t C = 0; C != Candidates.size(); ++C) {
      double Total = 0.0;
      for (size_t P = 0; P != Particles.size(); ++P) {
        int32_t Leaf = M.findLeaf(*Particles[P].T, Candidates.row(C));
        uint32_t Count = RefCounts[P][size_t(Leaf)];
        if (Count != 0)
          Total += double(Count) *
                   M.leafVarianceDrop(M.leafStats(Particles[P], Leaf));
      }
      Scores[C] = Total / double(Particles.size());
    }
    return Scores;
  }

  /// Empty when every distinct tree of the ensemble is compact: a walk
  /// from the root, left before right, reaches the nodes in index order
  /// and each node and chunk exactly once, and every Parent link names
  /// the node that points to it.  Otherwise the first violation found.
  std::string compactionViolation() const {
    std::set<const DynaTree::Tree *> Seen;
    for (const DynaTree::Particle &P : M.Particles) {
      const DynaTree::Tree &T = *P.T;
      if (!Seen.insert(&T).second)
        continue;
      if (T.Bounds.size() != T.Nodes.size() * 2 * M.Dims)
        return "bounds slots do not match the nodes";
      std::vector<uint8_t> ChunkSeen(T.Chunks.size(), 0);
      std::vector<std::pair<int32_t, int32_t>> Stack = {{0, -1}};
      size_t Visited = 0;
      while (!Stack.empty()) {
        auto [Idx, Parent] = Stack.back();
        Stack.pop_back();
        if (Idx != int32_t(Visited++))
          return "node " + std::to_string(Idx) + " out of preorder";
        const DynaTree::Node &N = T.Nodes[size_t(Idx)];
        if (N.Parent != Parent)
          return "node " + std::to_string(Idx) + " has a stale parent link";
        if (N.Left >= 0) {
          if (N.PtsHead >= 0)
            return "internal node " + std::to_string(Idx) + " holds points";
          Stack.push_back({N.Right, Idx});
          Stack.push_back({N.Left, Idx});
        }
        for (int32_t C = N.PtsHead; C >= 0; C = T.Chunks[size_t(C)].Next) {
          if (size_t(C) >= T.Chunks.size() || ChunkSeen[size_t(C)]++)
            return "chunk " + std::to_string(C) + " reached twice or missing";
        }
      }
      if (Visited != T.Nodes.size())
        return std::to_string(T.Nodes.size() - Visited) + " dead nodes";
      for (size_t C = 0; C != T.Chunks.size(); ++C)
        if (!ChunkSeen[C])
          return "chunk " + std::to_string(C) + " is dead";
    }
    return "";
  }

  /// Empty when every two trees of one lineage hold equal splits at every
  /// node and every lineage-0 tree is a single leaf.  Otherwise the first
  /// violation found.
  std::string lineageViolation() const {
    std::map<uint64_t, const DynaTree::Tree *> First;
    for (const DynaTree::Particle &P : M.Particles) {
      const DynaTree::Tree &T = *P.T;
      if (T.Lineage == 0 && T.Nodes.size() != 1)
        return "lineage 0 on a tree of " + std::to_string(T.Nodes.size()) +
               " nodes";
      const DynaTree::Tree &Want = *First.emplace(T.Lineage, &T).first->second;
      if (T.Nodes.size() != Want.Nodes.size())
        return "lineage " + std::to_string(T.Lineage) + " node counts differ";
      for (size_t I = 0; I != T.Nodes.size(); ++I) {
        const DynaTree::Node &A = T.Nodes[I], &B = Want.Nodes[I];
        if (A.Left != B.Left || A.Right != B.Right ||
            A.SplitDim != B.SplitDim ||
            std::memcmp(&A.SplitValue, &B.SplitValue, sizeof(double)) != 0)
          return "lineage " + std::to_string(T.Lineage) +
                 " splits differ at node " + std::to_string(I);
      }
    }
    return "";
  }

  /// Distinct lineages among the particles' trees.
  size_t lineageCount() const {
    std::set<uint64_t> Ids;
    for (const DynaTree::Particle &P : M.Particles)
      Ids.insert(P.T->Lineage);
    return Ids.size();
  }

  /// Lineages whose particles hold two or more distinct tree objects:
  /// copies whose leaf statistics may have drifted apart.
  size_t lineagesOverSeveralTrees() const {
    std::map<uint64_t, std::set<const DynaTree::Tree *>> Trees;
    for (const DynaTree::Particle &P : M.Particles)
      Trees[P.T->Lineage].insert(P.T.get());
    size_t Count = 0;
    for (const auto &[Lineage, Set] : Trees)
      Count += Set.size() > 1;
    return Count;
  }

  /// Particle \p I's tree: its lineage and its (Left, Right, SplitDim,
  /// SplitValue bits) per node.
  uint64_t lineage(size_t I) const { return M.Particles[I].T->Lineage; }
  std::vector<std::tuple<int32_t, int32_t, int16_t, uint64_t>>
  splits(size_t I) const {
    std::vector<std::tuple<int32_t, int32_t, int16_t, uint64_t>> Out;
    for (const DynaTree::Node &N : M.Particles[I].T->Nodes) {
      uint64_t Bits;
      std::memcpy(&Bits, &N.SplitValue, sizeof(Bits));
      Out.emplace_back(N.Left, N.Right, N.SplitDim, Bits);
    }
    return Out;
  }

  /// The lineage a grow or prune of particle \p I starts in the model's
  /// next update.
  uint64_t nextFreshLineage(size_t I) const {
    return DynaTree::freshLineage(M.StepCounter, I);
  }

  /// Particles deferring at least one "stay" absorption.
  size_t particlesWithPendingStays() const {
    size_t Count = 0;
    for (const DynaTree::Particle &P : M.Particles)
      Count += P.NumPending != 0;
    return Count;
  }

  /// Extends \p Model's depth- and count-indexed tables to \p MaxN.
  static void extendTables(DynaTree &Model, size_t MaxN) {
    Model.ensureMarginalTables(MaxN);
  }

  /// The tables' entries at depth or count \p I, and the expressions the
  /// SMC moves evaluated before the tables existed.
  double logSplit(size_t I) const { return M.LogSplitTable.at(I); }
  double log1mSplit(size_t I) const { return M.Log1mSplitTable.at(I); }
  double logStudentTNorm(size_t I) const {
    return M.LogStudentTNormTable.at(I);
  }
  double directLogSplit(unsigned D) const {
    return std::log(M.splitProbability(D));
  }
  double directLog1mSplit(unsigned D) const {
    return std::log(1.0 - M.splitProbability(D));
  }
  /// studentTPdf()'s log normalizer at a leaf of \p N points, with Df
  /// spelled as the posterior spells it.
  double directLogStudentTNorm(uint32_t N) const {
    double An = DynaTree::PriorShape + 0.5 * double(N);
    double Df = 2.0 * An;
    return logGamma(0.5 * (Df + 1.0)) - logGamma(0.5 * Df) -
           0.5 * std::log(Df * M_PI);
  }

  /// logPredictive() of the model, and as it read before the Student-t
  /// table: the leaf posterior followed by a direct studentTPdf() call.
  double logPredictive(uint32_t N, double SumY, double SumY2, double Y) const {
    return M.logPredictive({N, SumY, SumY2}, Y);
  }
  double directLogPredictive(uint32_t N, double SumY, double SumY2,
                             double Y) const {
    double K0 = DynaTree::PriorKappa, A0 = DynaTree::PriorShape;
    double B0 = M.PriorScale, M0 = M.PriorMean;
    double Nd = double(N);
    double Mean = N ? SumY / Nd : 0.0;
    double Ss = N ? std::max(0.0, SumY2 - Nd * Mean * Mean) : 0.0;
    double Kn = K0 + Nd;
    double Mn = (K0 * M0 + SumY) / Kn;
    double An = A0 + 0.5 * Nd;
    double Bn = B0 + 0.5 * Ss + 0.5 * K0 * Nd * (Mean - M0) * (Mean - M0) / Kn;
    double Df = 2.0 * An;
    double Scale = std::sqrt(Bn * (Kn + 1.0) / (An * Kn));
    double Z = (Y - Mn) / Scale;
    return std::log(studentTPdf(Z, Df) / Scale);
  }

  /// One grow-scan case: rows X/Y whose last row is the new point, a
  /// two-leaf tree whose leaf 1 absorbs the rows Stored in order and leaf
  /// 2 the rows Elsewhere, deferred {leaf, row} stays in FIFO order, and
  /// the {dimension, cut} of every try.
  struct GrowScan {
    FlatRows X;
    std::vector<double> Y;
    std::vector<uint32_t> Stored, Elsewhere;
    std::vector<std::pair<int32_t, uint32_t>> Pending;
    std::vector<std::pair<int, double>> Tries;
  };
  static constexpr unsigned MaxPending = DynaTree::MaxPending;
  static constexpr unsigned NumGrowTries = DynaTree::NumGrowTries;

  /// The count and Y sums one grow try sends left.
  struct TrySums {
    uint32_t Nl = 0;
    double Sl = 0.0, Sl2 = 0.0;
  };

  /// DynaTree::scoreGrowTries() over leaf 1 of \p Case's tree.
  static std::vector<TrySums> scoreGrowTries(const GrowScan &Case) {
    DynaTree Model;
    DynaTree::Particle P = growScanState(Case, Model);
    DynaTree::GrowTry Tries[DynaTree::NumGrowTries];
    for (unsigned K = 0; K != NumGrowTries; ++K) {
      Tries[K].Dim = Case.Tries[K].first;
      Tries[K].Cut = Case.Tries[K].second;
    }
    Model.scoreGrowTries(P, 1, uint32_t(Case.Y.size() - 1), Tries);
    std::vector<TrySums> Out;
    for (const DynaTree::GrowTry &T : Tries)
      Out.push_back({T.Nl, T.Sl, T.Sl2});
    return Out;
  }

  /// The per-try grow scan scoreGrowTries() must match: the leaf's
  /// points (its chunks from the list head, then its pending stays, then
  /// the new point) packed into Y and Y**2 arrays and one gathered column
  /// per try, then one predicated pass per try that adds Mask * Y.
  static std::vector<TrySums> perTryScan(const GrowScan &Case) {
    DynaTree Model;
    DynaTree::Particle P = growScanState(Case, Model);
    const DynaTree::Tree &T = *P.T;
    std::vector<uint32_t> Pts;
    for (int32_t C = T.Nodes[1].PtsHead; C >= 0; C = T.Chunks[size_t(C)].Next)
      for (uint32_t I = 0; I != T.Chunks[size_t(C)].Used; ++I)
        Pts.push_back(T.Chunks[size_t(C)].Entries[I]);
    for (unsigned I = 0; I != P.NumPending; ++I)
      if (P.Pending[I].LeafIdx == 1)
        Pts.push_back(P.Pending[I].PointIdx);
    Pts.push_back(uint32_t(Case.Y.size() - 1));
    std::vector<double> Ys, Y2s, Col(Pts.size());
    for (uint32_t Pt : Pts) {
      Ys.push_back(Model.DataY[Pt]);
      Y2s.push_back(Model.DataY[Pt] * Model.DataY[Pt]);
    }
    std::vector<TrySums> Out;
    for (auto [Dim, Cut] : Case.Tries) {
      for (size_t I = 0; I != Pts.size(); ++I)
        Col[I] = Model.DataX.row(Pts[I])[Dim];
      TrySums T;
      for (size_t I = 0; I != Pts.size(); ++I) {
        bool Left = Col[I] <= Cut;
        double Mask = Left ? 1.0 : 0.0;
        T.Nl += unsigned(Left);
        T.Sl += Mask * Ys[I];
        T.Sl2 += Mask * Y2s[I];
      }
      Out.push_back(T);
    }
    return Out;
  }

private:
  /// Loads \p Case's rows into \p Model and builds its particle.
  static DynaTree::Particle growScanState(const GrowScan &Case,
                                          DynaTree &Model) {
    Model.DataX = Case.X;
    Model.DataY = Case.Y;
    Model.Dims = Case.X.dim();
    DynaTree::Particle P;
    P.T = std::make_shared<DynaTree::Tree>();
    DynaTree::Tree &T = *P.T;
    T.Nodes.resize(3);
    T.Nodes[0].Left = 1;
    T.Nodes[0].Right = 2;
    T.Nodes[0].SplitDim = 0;
    T.Nodes[1].Parent = T.Nodes[2].Parent = 0;
    T.Nodes[1].Depth = T.Nodes[2].Depth = 1;
    for (int I = 0; I != 3; ++I)
      Model.pushBoundsSlot(T);
    for (uint32_t Pt : Case.Stored)
      Model.absorbInto(T, 1, Pt);
    for (uint32_t Pt : Case.Elsewhere)
      Model.absorbInto(T, 2, Pt);
    for (auto [Leaf, Pt] : Case.Pending)
      P.Pending[P.NumPending++] = {Leaf, Pt};
    return P;
  }

  const DynaTree &M;
};

} // namespace alic

namespace {

DynaTreeConfig smallConfig(unsigned Particles = 120, uint64_t Seed = 3) {
  DynaTreeConfig C;
  C.NumParticles = Particles;
  C.Seed = Seed;
  return C;
}

/// Step function in 1D: 0 below 0, 5 above.
double stepFn(double X) { return X < 0.0 ? 0.0 : 5.0; }

/// The raw bits of \p V: EXPECT_EQ on these is bitwise equality.
uint64_t bits(double V) {
  uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

} // namespace

TEST(DynaTreeTest, LearnsConstantFunction) {
  DynaTree M(smallConfig());
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  Rng R(1);
  for (int I = 0; I != 40; ++I) {
    X.push_back({R.nextUniform(-1, 1)});
    Y.push_back(3.0);
  }
  M.fit(X, Y);
  Prediction P = M.predict({0.5});
  EXPECT_NEAR(P.Mean, 3.0, 1e-6);
  EXPECT_LT(P.Variance, 0.01);
}

TEST(DynaTreeTest, LearnsStepFunction) {
  DynaTree M(smallConfig());
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  Rng R(2);
  for (int I = 0; I != 30; ++I) {
    double V = R.nextUniform(-1, 1);
    X.push_back({V});
    Y.push_back(stepFn(V));
  }
  M.fit(X, Y);
  for (int I = 0; I != 200; ++I) {
    double V = R.nextUniform(-1, 1);
    M.update({V}, stepFn(V));
  }
  EXPECT_NEAR(M.predict({-0.7}).Mean, 0.0, 0.4);
  EXPECT_NEAR(M.predict({0.7}).Mean, 5.0, 0.4);
  EXPECT_GT(M.averageLeafCount(), 1.5);
}

TEST(DynaTreeTest, DeterministicForEqualSeeds) {
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  Rng R(4);
  for (int I = 0; I != 50; ++I) {
    X.push_back({R.nextUniform(-1, 1), R.nextUniform(-1, 1)});
    Y.push_back(X.back()[0] * 2.0 + R.nextGaussian() * 0.1);
  }
  DynaTree M1(smallConfig(80, 9)), M2(smallConfig(80, 9));
  M1.fit(X, Y);
  M2.fit(X, Y);
  Prediction P1 = M1.predict({0.3, -0.2});
  Prediction P2 = M2.predict({0.3, -0.2});
  EXPECT_EQ(P1.Mean, P2.Mean);
  EXPECT_EQ(P1.Variance, P2.Variance);
}

TEST(DynaTreeTest, VarianceHigherOnComplexRegions) {
  // Constant leaves covering a steep ramp mix heterogeneous values, so
  // their predictive variance must exceed leaves on a flat plateau — the
  // "complex areas of the decision space stick out" mechanism the paper
  // relies on (Section 3.1).
  DynaTree M(smallConfig(200));
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  Rng R(5);
  for (int I = 0; I != 300; ++I) {
    double V = R.nextUniform(-1, 1);
    X.push_back({V});
    double Ramp = V < 0.0 ? 0.0 : 10.0 * V;
    Y.push_back(Ramp + 0.01 * R.nextGaussian());
  }
  M.fit(X, Y);
  auto bandVariance = [&M](double Lo, double Hi) {
    double Sum = 0.0;
    const int Steps = 21;
    for (int I = 0; I != Steps; ++I)
      Sum += M.predict({Lo + (Hi - Lo) * I / (Steps - 1)}).Variance;
    return Sum / Steps;
  };
  EXPECT_GT(bandVariance(0.3, 1.0), bandVariance(-1.0, -0.3));
}

TEST(DynaTreeTest, NoisyLeafHasHigherVarianceThanQuietLeaf) {
  DynaTree M(smallConfig(200));
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  Rng R(6);
  // Left half quiet, right half very noisy (heteroskedastic).
  for (int I = 0; I != 150; ++I) {
    double V = R.nextUniform(-1, 0);
    X.push_back({V});
    Y.push_back(2.0 + 0.01 * R.nextGaussian());
  }
  for (int I = 0; I != 150; ++I) {
    double V = R.nextUniform(0, 1);
    X.push_back({V});
    Y.push_back(2.0 + 1.0 * R.nextGaussian());
  }
  // Interleave for the SMC.
  std::vector<size_t> Order = R.sampleIndices(X.size(), X.size());
  std::vector<std::vector<double>> Xi;
  std::vector<double> Yi;
  for (size_t I : Order) {
    Xi.push_back(X[I]);
    Yi.push_back(Y[I]);
  }
  M.fit(Xi, Yi);
  EXPECT_GT(M.predict({0.5}).Variance, 3.0 * M.predict({-0.5}).Variance);
}

TEST(DynaTreeTest, AlcScoresNonNegativeAndFavourUncertainRegions) {
  DynaTree M(smallConfig(200));
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  Rng R(7);
  for (int I = 0; I != 150; ++I) {
    double V = R.nextUniform(-1, 0);
    X.push_back({V});
    Y.push_back(1.0 + 0.005 * R.nextGaussian());
  }
  for (int I = 0; I != 30; ++I) {
    double V = R.nextUniform(0, 1);
    X.push_back({V});
    Y.push_back(3.0 + 0.8 * R.nextGaussian());
  }
  std::vector<size_t> Order = R.sampleIndices(X.size(), X.size());
  std::vector<std::vector<double>> Xi;
  std::vector<double> Yi;
  for (size_t I : Order) {
    Xi.push_back(X[I]);
    Yi.push_back(Y[I]);
  }
  M.fit(Xi, Yi);

  std::vector<std::vector<double>> Ref;
  for (int I = 0; I != 100; ++I)
    Ref.push_back({R.nextUniform(-1, 1)});
  std::vector<std::vector<double>> Cands = {{-0.5}, {0.5}};
  std::vector<double> Scores = M.alcScores(Cands, Ref);
  EXPECT_GE(Scores[0], 0.0);
  EXPECT_GE(Scores[1], 0.0);
  EXPECT_GT(Scores[1], Scores[0]); // noisy side more informative
}

TEST(DynaTreeTest, AlmEqualsPredictiveVariance) {
  DynaTree M(smallConfig());
  std::vector<std::vector<double>> X = {{0.0}, {1.0}, {2.0}, {3.0}, {4.0}};
  std::vector<double> Y = {1.0, 2.0, 3.0, 2.0, 1.0};
  M.fit(X, Y);
  std::vector<std::vector<double>> Cands = {{0.5}, {3.5}};
  std::vector<double> Alm = M.almScores(Cands);
  EXPECT_DOUBLE_EQ(Alm[0], M.predict({0.5}).Variance);
  EXPECT_DOUBLE_EQ(Alm[1], M.predict({3.5}).Variance);
}

TEST(DynaTreeTest, EffectiveSampleSizeWithinBounds) {
  DynaTree M(smallConfig(100));
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  Rng R(8);
  for (int I = 0; I != 60; ++I) {
    X.push_back({R.nextUniform(-1, 1)});
    Y.push_back(std::sin(3 * X.back()[0]) + 0.05 * R.nextGaussian());
  }
  M.fit(X, Y);
  EXPECT_GE(M.effectiveSampleSize(), 1.0);
  EXPECT_LE(M.effectiveSampleSize(), 100.0);
}

TEST(DynaTreeTest, NumObservationsTracksUpdates) {
  DynaTree M(smallConfig());
  M.fit({{0.0}, {1.0}}, {1.0, 2.0});
  EXPECT_EQ(M.numObservations(), 2u);
  M.update({2.0}, 3.0);
  EXPECT_EQ(M.numObservations(), 3u);
}

TEST(DynaTreeTest, RefitResetsState) {
  DynaTree M(smallConfig());
  M.fit({{0.0}, {1.0}, {2.0}}, {1.0, 1.0, 1.0});
  M.fit({{5.0}, {6.0}}, {9.0, 9.0});
  EXPECT_EQ(M.numObservations(), 2u);
  EXPECT_NEAR(M.predict({5.5}).Mean, 9.0, 0.5);
}

TEST(DynaTreeTest, DefaultParticleCountIsPaperScale) {
  // Section 4.4 of the paper: N = 5000 particles.
  EXPECT_EQ(DynaTreeConfig().NumParticles, 5000u);
}

namespace {

/// Shared scenario for the determinism and statistics tests: 2-D step +
/// ramp surface with heteroskedastic noise, seeded batch plus sequential
/// updates.
struct Scenario {
  std::vector<std::vector<double>> X;
  std::vector<double> Y;

  explicit Scenario(int NumPoints = 300) {
    Rng R(42);
    for (int I = 0; I != NumPoints; ++I) {
      double A = R.nextUniform(-1, 1), B = R.nextUniform(-1, 1);
      X.push_back({A, B});
      double Sigma = A > 0.5 ? 0.5 : 0.05;
      Y.push_back(truth(A, B) + Sigma * R.nextGaussian());
    }
  }

  static double truth(double A, double B) {
    return (A < 0.0 ? 0.0 : 5.0) + 2.0 * B;
  }

  /// Fits the first 40 points, updates with the rest.
  void drive(DynaTree &M) const {
    M.fit({X.begin(), X.begin() + 40}, {Y.begin(), Y.begin() + 40});
    for (size_t I = 40; I != X.size(); ++I)
      M.update(X[I], Y[I]);
  }
};

} // namespace

TEST(DynaTreeTest, ParallelUpdatesBitIdenticalAcrossThreadCounts) {
  // The determinism contract of the particle engine: reweight, resample,
  // propagate, prediction, and ALC must be *bit-identical* with no pool
  // and with pools of any size, because every particle draws from a
  // counter-derived RNG stream and shards write disjoint state.
  Scenario S(220);
  DynaTreeConfig C = smallConfig(300, 11);

  DynaTree Serial(C);
  S.drive(Serial);
  Prediction Want = Serial.predict({0.3, -0.4});
  std::vector<double> WantAlc =
      Serial.alcScores({{0.3, -0.4}, {-0.6, 0.2}}, {S.X.begin(),
                                                    S.X.begin() + 60});

  for (unsigned Threads : {1u, 2u, 8u}) {
    Scheduler Pool(Threads);
    DynaTree M(C);
    M.setScheduler(&Pool);
    S.drive(M);
    Prediction Got = M.predict({0.3, -0.4});
    EXPECT_EQ(Want.Mean, Got.Mean) << Threads << " threads";
    EXPECT_EQ(Want.Variance, Got.Variance) << Threads << " threads";
    EXPECT_EQ(Serial.effectiveSampleSize(), M.effectiveSampleSize())
        << Threads << " threads";
    EXPECT_EQ(Serial.averageLeafCount(), M.averageLeafCount())
        << Threads << " threads";
    EXPECT_EQ(WantAlc, M.alcScores({{0.3, -0.4}, {-0.6, 0.2}},
                                   {S.X.begin(), S.X.begin() + 60}))
        << Threads << " threads";
  }
}

TEST(DynaTreeTest, IdenticallySeededRunsBitIdentical) {
  Scenario S(200);
  DynaTree M1(smallConfig(200, 21)), M2(smallConfig(200, 21));
  S.drive(M1);
  S.drive(M2);
  Prediction P1 = M1.predict({0.5, 0.5});
  Prediction P2 = M2.predict({0.5, 0.5});
  EXPECT_EQ(P1.Mean, P2.Mean);
  EXPECT_EQ(P1.Variance, P2.Variance);
  EXPECT_EQ(M1.effectiveSampleSize(), M2.effectiveSampleSize());
  EXPECT_EQ(M1.averageLeafCount(), M2.averageLeafCount());
  EXPECT_EQ(M1.averageDepth(), M2.averageDepth());
}

TEST(DynaTreeTest, EnsembleStatisticsMatchPreRefactorBaseline) {
  // Regression bounds recorded from the pre-SoA/pre-COW implementation on
  // this exact scenario at N=1000 (seed 7): ESS 992.99, average leaves
  // 18.38, average max depth 6.09, grid RMSE 0.335.  The rebuilt engine
  // must stay in the same statistical regime (the trajectories differ —
  // per-particle RNG streams replaced the shared generator — so the
  // comparison is tolerance-based, not bitwise).
  Scenario S(300);
  DynaTreeConfig C;
  C.NumParticles = 1000;
  C.Seed = 7;
  DynaTree M(C);
  S.drive(M);

  EXPECT_GE(M.effectiveSampleSize(), 800.0); // healthy, near-uniform weights
  EXPECT_LE(M.effectiveSampleSize(), 1000.0);
  EXPECT_GE(M.averageLeafCount(), 11.0); // 18.38 +/- 40%
  EXPECT_LE(M.averageLeafCount(), 26.0);
  EXPECT_GE(M.averageDepth(), 3.6); // 6.09 +/- 40%
  EXPECT_LE(M.averageDepth(), 8.6);

  double Se = 0.0;
  int Num = 0;
  for (double A = -0.9; A <= 0.95; A += 0.2)
    for (double B = -0.9; B <= 0.95; B += 0.2) {
      double D = M.predict({A, B}).Mean - Scenario::truth(A, B);
      Se += D * D;
      ++Num;
    }
  EXPECT_LE(std::sqrt(Se / Num), 0.5); // pre-refactor engine scored 0.335
}

TEST(DynaTreeTest, ThreadedLearningMatchesSerialUnderResampling) {
  // End-to-end shape of the COW machinery: long enough for pending lists
  // to overflow, trees to be cloned, and prunes to splice chunk lists —
  // all under a pool — with bitwise-equal outputs.
  Scenario S(400);
  DynaTreeConfig C = smallConfig(150, 31);
  DynaTree Serial(C), Threaded(C);
  Scheduler Pool(4);
  Threaded.setScheduler(&Pool);
  S.drive(Serial);
  S.drive(Threaded);
  for (double A = -0.8; A <= 0.9; A += 0.4)
    for (double B = -0.8; B <= 0.9; B += 0.4) {
      Prediction Ps = Serial.predict({A, B});
      Prediction Pt = Threaded.predict({A, B});
      EXPECT_EQ(Ps.Mean, Pt.Mean);
      EXPECT_EQ(Ps.Variance, Pt.Variance);
    }
}

TEST(DynaTreeTest, DedupScoringBitIdenticalToNaiveReference) {
  // The unique-run contract: predict/predictBatch/almScores/alcScores
  // walk each (tree, pending) run once and repeat the accumulation per
  // alias, and the batch paths read each run's leaf terms from a
  // per-(run, leaf) table, so they must be *bit-identical* to the naive
  // per-particle reference — serially, across worker counts, and under
  // varied steal seeds.  Two
  // states: a long sequential run, and one a few updates after the seed
  // batch, where particles still carry deferred "stay" absorptions that
  // the tables must fold into their leaves.
  Scenario S(260);
  DynaTreeConfig C = smallConfig(250, 13);
  DynaTree Long(C), Pending(C);
  S.drive(Long);
  ASSERT_GT(Long.duplicateFraction(), 0.0) << "scenario never aliased a tree";
  Pending.fit({S.X.begin(), S.X.begin() + 40}, {S.Y.begin(), S.Y.begin() + 40});
  for (size_t I = 40; I != 45; ++I)
    Pending.update(S.X[I], S.Y[I]);
  ASSERT_GT(DynaTreeNaiveReference(Pending).particlesWithPendingStays(), 0u)
      << "no particle defers a stay";

  FlatRows Cands;
  Rng R(23);
  for (int I = 0; I != 40; ++I)
    Cands.push({R.nextUniform(-1, 1), R.nextUniform(-1, 1)});
  FlatRows Ref(S.X.begin(), S.X.begin() + 60);

  // predictBatch over a prefix that ends inside its second shard.
  size_t BatchCount = Cands.size() - 3;
  auto BatchBits = [&](const DynaTree &M) {
    std::vector<Prediction> Out(BatchCount);
    M.predictBatch(Cands, BatchCount, Out.data());
    std::vector<uint64_t> Bits;
    for (const Prediction &P : Out)
      Bits.insert(Bits.end(), {bits(P.Mean), bits(P.Variance)});
    return Bits;
  };

  for (DynaTree *M : {&Long, &Pending}) {
    const char *State = M == &Long ? "long run" : "pending stays";
    // Naive reference on the very same ensemble state.
    DynaTreeNaiveReference Naive(*M);
    Prediction WantP = Naive.predict({0.3, -0.4});
    std::vector<double> WantAlm = Naive.almScores(Cands);
    std::vector<double> WantAlc = Naive.alcScores(Cands, Ref);
    std::vector<uint64_t> WantBatch;
    for (size_t C = 0; C != BatchCount; ++C) {
      Prediction P = Naive.predict(Cands[C]);
      WantBatch.insert(WantBatch.end(), {bits(P.Mean), bits(P.Variance)});
    }

    Prediction GotP = M->predict({0.3, -0.4});
    EXPECT_EQ(WantP.Mean, GotP.Mean) << State;
    EXPECT_EQ(WantP.Variance, GotP.Variance) << State;
    EXPECT_EQ(WantAlm, M->almScores(Cands)) << State;
    EXPECT_EQ(WantAlc, M->alcScores(Cands, Ref)) << State;
    EXPECT_EQ(WantBatch, BatchBits(*M)) << State;

    for (uint64_t StealSeed : {0x57ea1ull, 0xfeedull}) {
      for (unsigned Threads : {1u, 8u}) {
        Scheduler::Options O;
        O.Threads = Threads;
        O.StealSeed = StealSeed;
        Scheduler Pool(O);
        M->setScheduler(&Pool);
        EXPECT_EQ(WantAlm, M->almScores(Cands))
            << State << ", " << Threads << " threads, steal seed "
            << StealSeed;
        EXPECT_EQ(WantAlc, M->alcScores(Cands, Ref))
            << State << ", " << Threads << " threads, steal seed "
            << StealSeed;
        EXPECT_EQ(WantBatch, BatchBits(*M))
            << State << ", " << Threads << " threads, steal seed "
            << StealSeed;
        M->setScheduler(nullptr);
      }
    }
  }
}

TEST(DynaTreeTest, SmcTablesEqualDirectExpressions) {
  // propagate() and logPredictive() read the split prior by depth and
  // the Student-t normalizer by leaf count from tables; each entry must
  // be bitwise the expression the moves evaluated directly.
  Scenario S(60);
  DynaTree M(smallConfig(40, 5));
  S.drive(M);
  DynaTreeNaiveReference::extendTables(M, 4096);
  DynaTreeNaiveReference Ref(M);
  for (unsigned I = 0; I <= 4096; ++I) {
    EXPECT_EQ(bits(Ref.logSplit(I)), bits(Ref.directLogSplit(I))) << I;
    EXPECT_EQ(bits(Ref.log1mSplit(I)), bits(Ref.directLog1mSplit(I))) << I;
    EXPECT_EQ(bits(Ref.logStudentTNorm(I)), bits(Ref.directLogStudentTNorm(I)))
        << I;
  }
  // And the whole predictive density, on leaves of many sizes and probes.
  Rng R(99);
  for (int Trial = 0; Trial != 2000; ++Trial) {
    uint32_t N = uint32_t(R.nextBounded(4097));
    double SumY = 0.0, SumY2 = 0.0;
    double Mu = R.nextUniform(-3, 8), Sd = R.nextUniform(0.01, 2.0);
    for (uint32_t K = 0; K != std::min<uint32_t>(N, 64); ++K) {
      double Y = Mu + Sd * R.nextGaussian();
      SumY += Y;
      SumY2 += Y * Y;
    }
    if (N > 64) { // scale a 64-point sample up to N points
      SumY *= double(N) / 64.0;
      SumY2 *= double(N) / 64.0;
    }
    double Y = R.nextUniform(-5, 10);
    EXPECT_EQ(bits(Ref.logPredictive(N, SumY, SumY2, Y)),
              bits(Ref.directLogPredictive(N, SumY, SumY2, Y)))
        << "N=" << N << " Y=" << Y;
  }
}

TEST(DynaTreeTest, DedupBitIdenticalWhenModelTrainedUnderPool) {
  // Same contract with the *training* sharded too: a pooled model's run
  // index must describe the same ensemble the serial model built.
  Scenario S(260);
  DynaTreeConfig C = smallConfig(250, 13);
  DynaTree Serial(C), Pooled(C);
  S.drive(Serial);
  Scheduler Pool(4);
  Pooled.setScheduler(&Pool);
  S.drive(Pooled);
  EXPECT_EQ(Serial.uniqueRunCount(), Pooled.uniqueRunCount());
  EXPECT_EQ(Serial.duplicateFraction(), Pooled.duplicateFraction());
  DynaTreeNaiveReference Naive(Serial); // vs the pooled dedup path
  FlatRows Cands = {{0.3, -0.4}, {-0.6, 0.2}, {0.9, 0.9}};
  FlatRows Ref(S.X.begin(), S.X.begin() + 50);
  EXPECT_EQ(Naive.almScores(Cands), Pooled.almScores(Cands));
  EXPECT_EQ(Naive.alcScores(Cands, Ref), Pooled.alcScores(Cands, Ref));
}

TEST(DynaTreeTest, DedupBitIdenticalOnWeightConcentratedState) {
  // bench_dynatree_hotpath's second scoring state, at test size: one
  // strongly surprising observation collapses resampling onto the few
  // particles that explain it, so nearly every particle aliases an
  // earlier one — where dedup saves most, and where a run-boundary bug
  // would show first.  Same 6-d surface and outlier as the bench.
  auto Truth = [](const std::vector<double> &Row) {
    return Row[0] * 2.0 + Row[1] * Row[1] - Row[2] +
           (Row[3] > 0.0 ? 1.5 : 0.0) + (Row[4] > 0.4 ? 2.0 : 0.0);
  };
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  Rng R(2027);
  for (int I = 0; I != 60; ++I) {
    std::vector<double> Row(6);
    for (double &V : Row)
      V = R.nextUniform(-1, 1);
    double Sigma = Row[5] > 0.3 ? 0.4 : 0.05;
    Y.push_back(Truth(Row) + Sigma * R.nextGaussian());
    X.push_back(std::move(Row));
  }
  DynaTree M(smallConfig(400, 17));
  M.fit({X.begin(), X.begin() + 40}, {Y.begin(), Y.begin() + 40});
  for (size_t I = 40; I != X.size(); ++I)
    M.update(X[I], Y[I]);
  M.update({0.9, 0.9, -0.9, 0.9, 0.9, -0.9}, 80.0);
  ASSERT_GT(M.duplicateFraction(), 0.9) << "outlier did not concentrate";

  FlatRows Cands, Ref;
  Rng Draw(404);
  for (int I = 0; I != 60; ++I) {
    std::vector<double> Row(6);
    for (double &V : Row)
      V = Draw.nextUniform(-1, 1);
    (I < 40 ? Cands : Ref).push(Row);
  }
  DynaTreeNaiveReference Naive(M);
  std::vector<double> WantAlm = Naive.almScores(Cands);
  std::vector<double> WantAlc = Naive.alcScores(Cands, Ref);
  for (unsigned Threads : {0u, 2u}) {
    std::unique_ptr<Scheduler> Pool;
    if (Threads != 0)
      Pool = std::make_unique<Scheduler>(Threads);
    M.setScheduler(Pool.get());
    EXPECT_EQ(WantAlm, M.almScores(Cands)) << Threads << " threads";
    EXPECT_EQ(WantAlc, M.alcScores(Cands, Ref)) << Threads << " threads";
    M.setScheduler(nullptr);
  }
}

TEST(DynaTreeTest, TreesOfOneLineageHoldEqualSplits) {
  // Scoring walks a row once per lineage and reads every run of that
  // lineage through the one walk, so any two trees sharing a lineage must
  // hold the same splits at the same node indices, whatever their leaf
  // statistics.  Generated streams over several ensemble sizes and seeds,
  // with outliers that concentrate resampling, serial and pooled; checked
  // after every update.
  Scenario S(200);
  Scheduler Pool(4);
  for (int Case = 0; Case != 6; ++Case) {
    DynaTree M(smallConfig(Case % 2 ? 60u : 250u, 41 + uint64_t(Case)));
    if (Case >= 4)
      M.setScheduler(&Pool);
    DynaTreeNaiveReference Ref(M);
    M.fit({S.X.begin(), S.X.begin() + 40}, {S.Y.begin(), S.Y.begin() + 40});
    ASSERT_EQ(Ref.lineageViolation(), "") << "case " << Case << ", fit";
    Rng Outliers{uint64_t(Case)};
    for (size_t I = 40; I != S.X.size(); ++I) {
      bool Outlier = Outliers.nextBounded(25) == 0;
      M.update(S.X[I], Outlier ? 40.0 : S.Y[I]);
      ASSERT_EQ(Ref.lineageViolation(), "")
          << "case " << Case << ", after point " << I;
    }
    EXPECT_GT(Ref.lineageCount(), 1u) << "case " << Case << ": no grow";
  }
}

TEST(DynaTreeTest, GrowAndPruneStartNewLineages) {
  // One-particle ensembles keep a single line of descent, so each update
  // is one visible move: a grow adds two nodes, a prune removes two, a
  // stay keeps the splits.  A grow or a prune must start the lineage
  // freshLineage() names for that step and particle, a prune back to one
  // leaf must set 0, and a stay must keep both lineage and splits.
  unsigned Grows = 0, Prunes = 0, PrunesToRoot = 0, Stays = 0;
  for (uint64_t Seed = 1; Seed != 41; ++Seed) {
    Rng R(Seed);
    std::vector<std::vector<double>> X;
    std::vector<double> Y;
    for (int I = 0; I != 70; ++I) {
      double A = R.nextUniform(-1, 1);
      X.push_back({A, R.nextUniform(-1, 1)});
      Y.push_back(stepFn(A) + R.nextGaussian());
    }
    DynaTree M(smallConfig(1, Seed));
    DynaTreeNaiveReference Ref(M);
    M.fit({X.begin(), X.begin() + 6}, {Y.begin(), Y.begin() + 6});
    for (size_t I = 6; I != X.size(); ++I) {
      uint64_t Before = Ref.lineage(0), Fresh = Ref.nextFreshLineage(0);
      auto OldSplits = Ref.splits(0);
      M.update(X[I], Y[I]);
      auto NewSplits = Ref.splits(0);
      SCOPED_TRACE("seed " + std::to_string(Seed) + ", point " +
                   std::to_string(I));
      if (NewSplits.size() == OldSplits.size() + 2) {
        ++Grows;
        EXPECT_EQ(Ref.lineage(0), Fresh);
      } else if (NewSplits.size() + 2 == OldSplits.size()) {
        ++Prunes;
        PrunesToRoot += NewSplits.size() == 1;
        EXPECT_EQ(Ref.lineage(0), NewSplits.size() == 1 ? 0 : Fresh);
      } else {
        ++Stays;
        EXPECT_EQ(Ref.lineage(0), Before);
        EXPECT_EQ(NewSplits, OldSplits);
      }
    }
  }
  EXPECT_GT(Grows, 0u);
  EXPECT_GT(Prunes, PrunesToRoot) << "no prune kept a split";
  EXPECT_GT(PrunesToRoot, 0u);
  EXPECT_GT(Stays, 0u);
}

TEST(DynaTreeTest, LineageScoringBitIdenticalToNaiveReference) {
  // The state lineage scoring exists for: a weight-concentrating outlier
  // collapses resampling onto a few trees, then stays fill the aliases'
  // pending lists until they flush into private copies, so one lineage
  // spans several runs and several tree objects whose leaf statistics
  // differ.  alcScores, almScores and predictBatch walk each row once
  // per lineage and must still match the per-particle reference bitwise,
  // serially and on a pool, and count exactly the walks they do.
  Scenario S(160);
  DynaTree M(smallConfig(300, 23));
  M.fit({S.X.begin(), S.X.begin() + 40}, {S.Y.begin(), S.Y.begin() + 40});
  for (size_t I = 40; I != 120; ++I)
    M.update(S.X[I], S.Y[I]);
  M.update({0.9, 0.9}, 60.0);
  for (size_t I = 120; I != 132; ++I) // more stays than a pending list holds
    M.update(S.X[I], S.Y[I]);
  DynaTreeNaiveReference Naive(M);
  size_t Lineages = Naive.lineageCount();
  ASSERT_LT(Lineages, M.uniqueRunCount()) << "no lineage spans two runs";
  ASSERT_GT(Naive.lineagesOverSeveralTrees(), 0u)
      << "no lineage spans two tree objects";

  FlatRows Cands, Ref(S.X.begin() + 100, S.X.begin() + 150);
  Rng Draw(77);
  for (int I = 0; I != 45; ++I) // a partial row block and a partial shard
    Cands.push({Draw.nextUniform(-1, 1), Draw.nextUniform(-1, 1)});
  std::vector<double> WantAlm = Naive.almScores(Cands);
  std::vector<double> WantAlc = Naive.alcScores(Cands, Ref);
  std::vector<uint64_t> WantBatch;
  for (size_t C = 0; C != Cands.size(); ++C) {
    Prediction P = Naive.predict(Cands[C]);
    WantBatch.insert(WantBatch.end(), {bits(P.Mean), bits(P.Variance)});
  }
  for (unsigned Workers : {0u, 4u}) {
    std::unique_ptr<Scheduler> Pool;
    if (Workers != 0)
      Pool = std::make_unique<Scheduler>(Workers);
    M.setScheduler(Pool.get());
    ScoreStats Stats;
    ScoreContext Ctx;
    Ctx.Stats = &Stats;
    EXPECT_EQ(WantAlm, M.almScores(Cands, Ctx)) << Workers << " workers";
    EXPECT_EQ(WantAlc, M.alcScores(Cands, Ref, Ctx)) << Workers << " workers";
    EXPECT_EQ(Stats.UniqueLeafWalks.load(),
              Lineages * (2 * Cands.size() + Ref.size()))
        << Workers << " workers";
    std::vector<Prediction> Batch(Cands.size());
    M.predictBatch(Cands, Cands.size(), Batch.data());
    M.setScheduler(nullptr);
    std::vector<uint64_t> GotBatch;
    for (const Prediction &P : Batch)
      GotBatch.insert(GotBatch.end(), {bits(P.Mean), bits(P.Variance)});
    EXPECT_EQ(WantBatch, GotBatch) << Workers << " workers";
  }
}

TEST(DynaTreeTest, GrowScanMatchesPerTryScan) {
  // scoreGrowTries() scores all tries in one vector pass; each try's sums
  // must be bitwise those of a scan of that try alone.  Generated
  // leaves of 6 to 300 scanned points (stored, pending and the new point),
  // with pending stays on and off the leaf, tries sharing a dimension,
  // cuts equal to a coordinate (the tie goes left), coordinates on a
  // coarse grid so ties are common, and Y values that are negative, +0.0
  // or -0.0.
  using Ref = DynaTreeNaiveReference;
  Rng R(0x9ca7);
  for (int Case = 0; Case != 400; ++Case) {
    Ref::GrowScan S;
    size_t Dims = 1 + R.nextBounded(6);
    size_t Scanned = 6 + R.nextBounded(295); // new point included
    size_t Elsewhere = R.nextBounded(12);
    size_t PendingOn =
        R.nextBounded(std::min<size_t>(Ref::MaxPending, Scanned - 1) + 1);
    size_t PendingOff = R.nextBounded(Ref::MaxPending - PendingOn + 1);
    bool Grid = R.nextBounded(2) == 0;
    size_t NumRows = Scanned + Elsewhere + PendingOff;
    for (size_t I = 0; I != NumRows; ++I) {
      std::vector<double> Row(Dims);
      for (double &V : Row)
        V = Grid ? double(R.nextBounded(9)) * 0.25 - 1.0 : R.nextUniform(-1, 1);
      S.X.push(Row);
      switch (R.nextBounded(5)) {
      case 0:
        S.Y.push_back(0.0);
        break;
      case 1:
        S.Y.push_back(-0.0);
        break;
      default:
        S.Y.push_back(3.0 * R.nextGaussian());
      }
    }
    // Rows: stored on leaf 1, stored on leaf 2, pending on leaf 1,
    // pending on leaf 2, then the new point.  Scan lists leaf 1's rows.
    std::vector<uint32_t> Scan;
    uint32_t Row = 0;
    for (size_t I = 0; I + PendingOn + 1 != Scanned; ++I)
      S.Stored.push_back(Row++);
    Scan = S.Stored;
    for (size_t I = 0; I != Elsewhere; ++I)
      S.Elsewhere.push_back(Row++);
    std::vector<std::pair<int32_t, uint32_t>> On, Off;
    for (size_t I = 0; I != PendingOn; ++I) {
      Scan.push_back(Row);
      On.push_back({1, Row++});
    }
    for (size_t I = 0; I != PendingOff; ++I)
      Off.push_back({2, Row++});
    Scan.push_back(Row); // the new point
    ASSERT_EQ(size_t(Row) + 1, S.Y.size());
    while (!On.empty() || !Off.empty()) { // interleave, FIFO within each
      auto &From = Off.empty() || (!On.empty() && R.nextBounded(2)) ? On : Off;
      S.Pending.push_back(From.front());
      From.erase(From.begin());
    }

    int SharedDim = int(R.nextBounded(Dims));
    bool OneDim = R.nextBounded(3) == 0;
    for (unsigned K = 0; K != Ref::NumGrowTries; ++K) {
      int Dim = OneDim ? SharedDim : int(R.nextBounded(Dims));
      // A cut on a scanned point's coordinate (the new point's included)
      // or anywhere in the range.
      double Cut = R.nextUniform(-1, 1);
      if (R.nextBounded(2))
        Cut = S.X.row(Scan[R.nextBounded(Scan.size())])[Dim];
      S.Tries.push_back({Dim, Cut});
    }

    std::vector<Ref::TrySums> Got = Ref::scoreGrowTries(S);
    std::vector<Ref::TrySums> Want = Ref::perTryScan(S);
    for (unsigned K = 0; K != Ref::NumGrowTries; ++K) {
      SCOPED_TRACE("case " + std::to_string(Case) + ", try " +
                   std::to_string(K) + ", " + std::to_string(Scanned) +
                   " points");
      EXPECT_EQ(std::memcmp(&Got[K].Nl, &Want[K].Nl, sizeof(uint32_t)), 0);
      EXPECT_EQ(std::memcmp(&Got[K].Sl, &Want[K].Sl, sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(&Got[K].Sl2, &Want[K].Sl2, sizeof(double)), 0);
    }
  }
}

TEST(DynaTreeTest, RunIndexCountersSane) {
  // A seed batch too small to grow (needs 2*MinLeafSize effective points)
  // or overflow the pending list keeps every particle aliasing the one
  // root tree: exactly one unique run.
  DynaTree M(smallConfig(300, 5));
  M.fit({{0.0}, {0.2}, {0.4}, {0.6}}, {1.0, 1.1, 0.9, 1.0});
  EXPECT_EQ(M.uniqueRunCount(), 1u);
  EXPECT_NEAR(M.duplicateFraction(), 1.0 - 1.0 / 300.0, 1e-12);

  // Drive real updates: runs multiply as particles diverge, but stay
  // bounded by the ensemble size, and the fraction stays in [0, 1].
  Rng R(31);
  for (int I = 0; I != 80; ++I) {
    double V = R.nextUniform(-1, 1);
    M.update({V}, stepFn(V) + 0.05 * R.nextGaussian());
  }
  EXPECT_GE(M.uniqueRunCount(), 1u);
  EXPECT_LE(M.uniqueRunCount(), 300u);
  EXPECT_GE(M.duplicateFraction(), 0.0);
  EXPECT_LE(M.duplicateFraction(), 1.0);

  // The instrumentation must account walks exactly: naive terms are
  // candidates * particles; the scoring paths walk each row once per
  // tree lineage, and lineages never outnumber runs.
  size_t Lineages = DynaTreeNaiveReference(M).lineageCount();
  EXPECT_LE(Lineages, M.uniqueRunCount());
  ScoreStats Stats;
  ScoreContext Ctx;
  Ctx.Stats = &Stats;
  FlatRows Cands = {{-0.5}, {0.1}, {0.7}};
  M.almScores(Cands, Ctx);
  EXPECT_EQ(Stats.CandidatesScored.load(), 3u);
  EXPECT_EQ(Stats.ParticleTerms.load(), 3u * 300u);
  EXPECT_EQ(Stats.UniqueLeafWalks.load(), 3u * Lineages);
  EXPECT_GE(Stats.dedupFactor(), 1.0);

  FlatRows Ref = {{-0.8}, {-0.2}, {0.4}, {0.9}};
  M.alcScores(Cands, Ref, Ctx);
  EXPECT_EQ(Stats.CandidatesScored.load(), 6u);
  EXPECT_EQ(Stats.ParticleTerms.load(), 3u * 300u + (3u + 4u) * 300u);
  EXPECT_EQ(Stats.UniqueLeafWalks.load(), (3u + 3u + 4u) * Lineages);
}

TEST(DynaTreeTest, PostResampleRunsAreContiguousAliases) {
  // After a resampling update, the duplicate fraction the run index
  // reports must match what systematic resampling implies: N particles
  // in at most N runs, and a concentrated posterior (an outlier
  // observation) collapses many particles onto few survivors.
  Scenario S(150);
  DynaTreeConfig C = smallConfig(400, 19);
  DynaTree M(C);
  S.drive(M);
  double Before = M.duplicateFraction();
  // A string of far-outlier updates concentrates the weights.
  for (int I = 0; I != 4; ++I)
    M.update({0.95, 0.95}, 60.0 + double(I));
  EXPECT_GT(M.duplicateFraction(), Before);
  EXPECT_LE(M.uniqueRunCount(),
            size_t(double(C.NumParticles) * (1.0 - M.duplicateFraction())) + 1);
}

TEST(DynaTreeTest, TreesGrowWithStructuredData) {
  DynaTree M(smallConfig(150));
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  Rng R(9);
  for (int I = 0; I != 400; ++I) {
    double A = R.nextUniform(-2, 2), B = R.nextUniform(-2, 2);
    X.push_back({A, B});
    Y.push_back(stepFn(A) + stepFn(B) + 0.02 * R.nextGaussian());
  }
  M.fit(X, Y);
  EXPECT_GT(M.averageLeafCount(), 3.0);
  EXPECT_GT(M.averageDepth(), 1.0);
}

TEST(DynaTreeTest, TreesHoldOnlyLiveStorageAfterLongRuns) {
  // Grows abandon a leaf's chunks and prunes two nodes; each compacts its
  // tree at once, so at any point between updates every distinct tree
  // holds exactly what its root reaches, in preorder.
  Scenario S(300);
  for (unsigned Particles : {60u, 250u}) {
    DynaTree M(smallConfig(Particles, 29));
    M.fit({S.X.begin(), S.X.begin() + 40}, {S.Y.begin(), S.Y.begin() + 40});
    DynaTreeNaiveReference Ref(M);
    for (size_t I = 40; I != S.X.size(); ++I) {
      M.update(S.X[I], S.Y[I]);
      if (I % 26 == 0 || I + 1 == S.X.size()) {
        ASSERT_EQ(Ref.compactionViolation(), "")
            << Particles << " particles, after point " << I;
      }
    }
    DynaTree::TreeCensus Census = M.treeCensus();
    EXPECT_EQ(Census.DeadNodes, 0u) << Particles << " particles";
    EXPECT_EQ(Census.DeadChunks, 0u) << Particles << " particles";
    EXPECT_GT(Census.LiveNodes, Census.Trees) << "no tree ever grew";
    EXPECT_GE(Census.Trees, 1u);
    EXPECT_LE(Census.Trees, M.uniqueRunCount());
  }
}

TEST(DynaTreeTest, LongRunScoresMatchRecordedGoldens) {
  // predict, ALM and ALC after 220 updates, pinned to hex-float values
  // recorded before trees were compacted.  The naive reference compares
  // scoring on one state; these goldens also cover the update path
  // (grows, prunes, clones, compaction) that built the state, at any
  // worker count.
  Scenario S(260);
  FlatRows Cands = {{0.3, -0.4}, {-0.6, 0.2}, {0.9, 0.9}};
  FlatRows Ref(S.X.begin(), S.X.begin() + 60);
  // {predict mean, predict variance, ALM, ALC} per candidate.
  const double Want[3][4] = {
      {0x1.2322b4141e643p+2, 0x1.2e49fc902e98p-3, 0x1.2e49fc902e98p-3,
       0x1.863a05c361b25p-10},
      {0x1.31efe77cda938p-2, 0x1.4dedbc3300712p-4, 0x1.4dedbc3300712p-4,
       0x1.a7f30b298c774p-11},
      {0x1.b187e14fdd3e6p+2, 0x1.e95058e2532p-3, 0x1.e95058e2532p-3,
       0x1.9ce0a21c317fep-10}};
  for (unsigned Workers : {0u, 1u, 8u}) {
    std::unique_ptr<Scheduler> Pool;
    if (Workers != 0)
      Pool = std::make_unique<Scheduler>(Workers);
    DynaTree M(smallConfig(250, 13));
    M.setScheduler(Pool.get());
    S.drive(M);
    EXPECT_EQ(bits(M.averageLeafCount()), bits(0x1.96c8b43958106p+3))
        << Workers << " workers";
    EXPECT_EQ(bits(M.averageDepth()), bits(0x1.8872b020c49bap+2))
        << Workers << " workers";
    EXPECT_EQ(bits(M.effectiveSampleSize()), bits(0x1.e59198401081ap+7))
        << Workers << " workers";
    std::vector<double> Alm = M.almScores(Cands);
    std::vector<double> Alc = M.alcScores(Cands, Ref);
    for (size_t C = 0; C != Cands.size(); ++C) {
      Prediction P = M.predict(Cands[C]);
      EXPECT_EQ(bits(P.Mean), bits(Want[C][0])) << C << ", " << Workers;
      EXPECT_EQ(bits(P.Variance), bits(Want[C][1])) << C << ", " << Workers;
      EXPECT_EQ(bits(Alm[C]), bits(Want[C][2])) << C << ", " << Workers;
      EXPECT_EQ(bits(Alc[C]), bits(Want[C][3])) << C << ", " << Workers;
    }
  }
}

TEST(DynaTreeTest, AliasHeavyUpdatesMatchRecordedGoldens) {
  // Updates that start from bench_dynatree_hotpath's weight-concentrated
  // state, at test size: one outlier collapses resampling onto a few
  // survivors, so the propagate phases that follow walk long runs of
  // particles aliasing one tree.  predict, ALM, ALC, ESS and leaves are
  // pinned to hex-float values recorded before the grow scan became one
  // pass over the leaf, at any worker count.
  auto Truth = [](const std::vector<double> &Row) {
    return Row[0] * 2.0 + Row[1] * Row[1] - Row[2] +
           (Row[3] > 0.0 ? 1.5 : 0.0) + (Row[4] > 0.4 ? 2.0 : 0.0);
  };
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  Rng R(2027);
  for (int I = 0; I != 100; ++I) {
    std::vector<double> Row(6);
    for (double &V : Row)
      V = R.nextUniform(-1, 1);
    double Sigma = Row[5] > 0.3 ? 0.4 : 0.05;
    Y.push_back(Truth(Row) + Sigma * R.nextGaussian());
    X.push_back(std::move(Row));
  }
  FlatRows Cands, Ref;
  Rng Draw(404);
  for (int I = 0; I != 43; ++I) {
    std::vector<double> Row(6);
    for (double &V : Row)
      V = Draw.nextUniform(-1, 1);
    (I < 3 ? Cands : Ref).push(Row);
  }
  // {predict mean, predict variance, ALM, ALC} per candidate.
  const double Want[3][4] = {
      {0x1.a850086d5d71ap+1, 0x1.236f2d0fedddbp+4, 0x1.236f2d0fedddbp+4,
       0x1.54720cb27be61p-1},
      {0x1.28d8b29d3205dp+1, 0x1.ba7757430fd5cp+0, 0x1.ba7757430fd5cp+0,
       0x1.17297a7facb47p-5},
      {0x1.10521ade41378p-1, 0x1.20d4fafec9559p+1, 0x1.20d4fafec9559p+1,
       0x1.668021226e8b8p-7}};
  for (unsigned Workers : {0u, 1u, 8u}) {
    std::unique_ptr<Scheduler> Pool;
    if (Workers != 0)
      Pool = std::make_unique<Scheduler>(Workers);
    DynaTree M(smallConfig(400, 17));
    M.setScheduler(Pool.get());
    M.fit({X.begin(), X.begin() + 40}, {Y.begin(), Y.begin() + 40});
    for (size_t I = 40; I != 60; ++I)
      M.update(X[I], Y[I]);
    M.update({0.9, 0.9, -0.9, 0.9, 0.9, -0.9}, 80.0);
    ASSERT_GT(M.duplicateFraction(), 0.9) << "outlier did not concentrate";
    for (size_t I = 60; I != X.size(); ++I)
      M.update(X[I], Y[I]);
    EXPECT_EQ(bits(M.averageLeafCount()), bits(0x1.0733333333333p+2))
        << Workers << " workers";
    EXPECT_EQ(bits(M.effectiveSampleSize()), bits(0x1.8b6cf6f4b8225p+8))
        << Workers << " workers";
    std::vector<double> Alm = M.almScores(Cands);
    std::vector<double> Alc = M.alcScores(Cands, Ref);
    for (size_t C = 0; C != Cands.size(); ++C) {
      Prediction P = M.predict(Cands[C]);
      EXPECT_EQ(bits(P.Mean), bits(Want[C][0])) << C << ", " << Workers;
      EXPECT_EQ(bits(P.Variance), bits(Want[C][1])) << C << ", " << Workers;
      EXPECT_EQ(bits(Alm[C]), bits(Want[C][2])) << C << ", " << Workers;
      EXPECT_EQ(bits(Alc[C]), bits(Want[C][3])) << C << ", " << Workers;
    }
  }
}
