//===- dynatree/DynaTree.h - Dynamic trees (SMC regression) ---*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A from-scratch reimplementation of dynamic trees (Taddy, Gramacy &
/// Polson, "Dynamic Trees for Learning and Design", JASA 106(493), 2011) —
/// the model behind the R dynaTree package the paper uses (Section 3.2).
///
/// The model is a sequential-Monte-Carlo ensemble ("particles") of
/// Bayesian regression trees with constant leaves under a conjugate
/// Normal-Inverse-Gamma prior.  Every new observation (x, y):
///
///   1. *reweights* particles by their posterior predictive p(y | x, T);
///   2. *resamples* particles in proportion to those weights (systematic
///      resampling);
///   3. *propagates* each particle with one of three stochastic moves
///      local to the leaf containing x — stay, prune, or grow (Figure 4
///      of the paper) — drawn from their local posterior;
///   4. absorbs (x, y) into the affected leaf's sufficient statistics.
///
/// Each update walks every particle's tree to the new point's leaf and,
/// for a grow proposal, scans that leaf's points: O(particles * (depth +
/// leaf size)) with no refit.  Together with calibrated predictive
/// variance and closed-form ALM/ALC scores, these are the properties the
/// paper's Section 3.2 lists as the reasons to prefer dynamic trees over
/// GPs for active learning.
///
/// The particle engine is built for throughput at the paper's N = 5000:
///
///  * **Flat storage, live only.**  Training rows live in one contiguous
///    FlatRows buffer; each particle's tree is a POD node arena and a
///    pooled chunk list of per-leaf point indices.  Copying a tree is two
///    vector copies — no per-leaf heap allocations.  A grow abandons the
///    old leaf's chunks and a prune its two children, so each rebuilds the
///    tree in preorder right away, keeping only what the root reaches: no
///    tree at rest holds dead storage, and clones, sessions and per-(run,
///    node) scoring tables are sized by live state.  treeCensus() counts
///    both kinds.
///
///  * **Copy-on-write resampling.**  Systematic resampling only copies a
///    shared_ptr per offspring.  The common post-resample move ("stay")
///    appends a (leaf, point) entry to a small per-particle pending list;
///    the shared tree is cloned only when a particle mutates structurally
///    (grow/prune) or its pending list fills up.
///
///  * **Deterministic parallel updates.**  Reweighting and propagation
///    shard across the work-stealing Scheduler on a fixed particle grid;
///    every particle draws from its own counter-derived RNG stream
///    (seed, step, index), so results are bit-identical at any worker
///    count and under any steal order.  The shards fork onto the same
///    pool even when the model already runs inside a scheduler task (a
///    campaign cell), so idle workers can steal them.
///
///  * **Unique-run deduplicated scoring.**  Copy-on-write resampling
///    leaves duplicate particles *contiguous*, sharing one tree pointer
///    and identical pending lists, so their leaf posteriors are equal by
///    construction.  A run index groups consecutive particles by (tree
///    identity, pending fingerprint); reweighting, predict(), almScores(),
///    and alcScores() evaluate each run once and accumulate the result
///    per particle in original index order — bit-for-bit the sums the
///    naive per-particle path produces.  The same index lets propagate()
///    reuse the new point's leaf, stats and bounds across consecutive
///    aliases.
///
///  * **One leaf walk per split lineage.**  Only grow and prune change a
///    tree's splits, and each compacts the tree in preorder and gives it
///    a fresh lineage id; stays, clones and flushes keep it.  Trees of
///    one lineage therefore send every row to the same node index, however
///    their leaf statistics have drifted apart.  almScores(), alcScores()
///    and predictBatch() group the unique runs by lineage and walk every
///    row once per lineage, tree-major (one tree, many rows), into a
///    per-lineage slice of leaf indices.  Each run then reads its leaves'
///    terms through its lineage's slice and adds them, in particle order,
///    to four rows' sums at once in vector lanes.
///
///  * **Two-pass grow scans.**  A grow proposal bounds its leaf in one
///    pass over the leaf's points, eight dimensions at a time in vector
///    lanes, draws four (dimension, cut) tries inside those bounds, and
///    scores them all in a second pass, two tries to a 2-lane double
///    vector, reading each row in place.  Each try's sums are bitwise
///    those of a scan of that try alone.
///
///  * **Scoring from per-leaf tables.**  A leaf's ALC term (reference
///    count times expected variance drop) and its ALM moments depend on
///    the run and the leaf, never on the candidate.  alcScores(),
///    almScores() and predictBatch() fill one flat (run, leaf) table per
///    call, then a row costs one lookup per run.  The SMC
///    moves read the split prior and the Student-t normalizer from
///    depth- and count-indexed tables.  Every table entry is the exact
///    expression the direct call evaluates, so scores and updates are
///    bitwise unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_DYNATREE_DYNATREE_H
#define ALIC_DYNATREE_DYNATREE_H

#include "model/SurrogateModel.h"
#include "support/Rng.h"

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace alic {

class Scheduler;

/// Settable values of the dynamic-tree model; its priors are fixed
/// constants of DynaTree.
struct DynaTreeConfig {
  /// Number of SMC particles (the paper's Section 4.4 value).
  unsigned NumParticles = 5000;

  /// RNG seed (the whole model is deterministic given the data order).
  uint64_t Seed = 17;
};

/// Dynamic-tree surrogate model.
class DynaTree : public SurrogateModel {
public:
  explicit DynaTree(DynaTreeConfig Config = DynaTreeConfig());

  void fit(const FlatRows &X, const std::vector<double> &Y) override;
  void update(RowRef X, double Y) override;
  Prediction predict(RowRef X) const override;
  /// Shards the rows over the model's scheduler and reads each leaf's
  /// moments from almScores()'s per-(run, leaf) table: bitwise predict().
  void predictBatch(const FlatRows &X, size_t Count,
                    Prediction *Out) const override;
  std::vector<double> almScores(const FlatRows &Candidates,
                                const ScoreContext &Ctx = ScoreContext())
      const override;
  std::vector<double> alcScores(const FlatRows &Candidates,
                                const FlatRows &Reference,
                                const ScoreContext &Ctx = ScoreContext())
      const override;
  size_t numObservations() const override { return DataY.size(); }
  void setScheduler(Scheduler *Pool) override { Workers = Pool; }

  /// Ensemble diagnostics (tests, benches).
  double averageLeafCount() const;
  double averageDepth() const;
  double effectiveSampleSize() const { return LastEss; }

  /// Storage of the ensemble's distinct trees, each counted once however
  /// many particles share it.  A node is live when the root reaches it, a
  /// chunk when a live leaf's list does; the rest of each arena is dead.
  /// TreeBytes is the arenas' allocated capacity.
  struct TreeCensus {
    size_t Trees = 0;
    size_t LiveNodes = 0, DeadNodes = 0;
    size_t LiveChunks = 0, DeadChunks = 0;
    size_t TreeBytes = 0;
  };
  TreeCensus treeCensus() const;

  /// Number of unique-particle runs: maximal groups of consecutive
  /// particles sharing one tree and one pending list.  Scoring cost
  /// scales with this, not with NumParticles.
  size_t uniqueRunCount() const {
    return RunOffsets.empty() ? 0 : RunOffsets.size() - 1;
  }

  /// Fraction of particles that alias an earlier particle of their run
  /// (1 - uniqueRunCount() / NumParticles); the dedup win grows with it.
  double duplicateFraction() const {
    return Particles.empty()
               ? 0.0
               : 1.0 - double(uniqueRunCount()) / double(Particles.size());
  }

private:
  /// The naive per-particle scoring walk in tests/dynatree_test.cpp, which
  /// the unique-run paths must match bit-for-bit.
  friend class DynaTreeNaiveReference;

  /// Tree prior: p_split(depth) = SplitAlpha * (1 + depth)^-SplitBeta
  /// (Chipman, George & McCulloch).
  static constexpr double SplitAlpha = 0.95;
  static constexpr double SplitBeta = 1.5;

  /// Minimum observations per leaf for a grow move.
  static constexpr unsigned MinLeafSize = 3;

  /// Normal-Inverse-Gamma prior strength (pseudo-observations of the
  /// mean) and variance shape; the scale is set empirically from the
  /// seed data in fit().
  static constexpr double PriorKappa = 0.1;
  static constexpr double PriorShape = 3.0;

  /// Fraction of the seed variance used as the prior expected leaf
  /// variance: small values expect leaves to explain most variance and
  /// make splits cheap to justify.
  static constexpr double PriorScaleFactor = 0.01;

  /// Point-index chunks per leaf are linked lists of fixed-size blocks in
  /// the tree's pooled chunk arena: appending a point never reallocates
  /// per-leaf storage, and tree copies are plain vector copies.
  static constexpr unsigned ChunkCapacity = 10;
  struct PtsChunk {
    int32_t Next = -1; ///< next (older) chunk, -1 terminates
    uint32_t Used = 0;
    uint32_t Entries[ChunkCapacity];
  };

  struct Node {
    int32_t Left = -1; ///< -1 for leaves
    int32_t Right = -1;
    int32_t Parent = -1;
    int16_t SplitDim = -1;
    uint16_t Depth = 0;
    double SplitValue = 0.0;
    // Leaf sufficient statistics.
    double SumY = 0.0;
    double SumY2 = 0.0;
    uint32_t Count = 0;
    int32_t PtsHead = -1; ///< head of the leaf's point-chunk list
  };

  /// One tree: a flat node arena (node 0 is the root) and the pooled
  /// point-chunk arena its leaves index into.  POD vectors only, so a
  /// clone is two memcpy-style copies.  Every node and chunk is live:
  /// compact() runs after each grow and prune, the only moves that strand
  /// storage.
  struct Tree {
    std::vector<Node> Nodes;
    std::vector<PtsChunk> Chunks;
    /// Split lineage: 0 for a one-leaf tree, else the freshLineage() of
    /// the grow or prune that last changed the splits.  Copies keep it and
    /// only those two moves reset it, each right after compact(), so
    /// trees of one lineage hold equal splits at equal node indices.
    uint64_t Lineage = 0;
  };

  /// A data point absorbed by a "stay" move but not yet written into the
  /// (possibly shared) tree.
  struct PendingPoint {
    int32_t LeafIdx = -1;
    uint32_t PointIdx = 0;
  };

  /// Pending "stay" absorptions a particle can defer before it must
  /// materialize a private tree copy.
  static constexpr unsigned MaxPending = 8;

  /// One particle: a (possibly shared) tree plus its deferred stays.
  /// After resampling, duplicates alias the ancestor's tree; a particle
  /// clones it only on its first structural mutation or when the pending
  /// list fills up.
  struct Particle {
    std::shared_ptr<Tree> T;
    std::array<PendingPoint, MaxPending> Pending;
    uint8_t NumPending = 0;
  };

  /// Effective sufficient statistics of a leaf: the tree's stored stats
  /// plus any pending absorptions targeting it.
  struct LeafStats {
    uint32_t Count = 0;
    double SumY = 0.0;
    double SumY2 = 0.0;
  };

  /// Index of the leaf of \p T containing \p X (pending points never
  /// change structure, so the walk needs no overlay checks).  The child is
  /// an arithmetic select, not a branch: tree-major callers walk one tree
  /// for many rows, whose turns no predictor can learn.
  int32_t findLeaf(const Tree &T, const double *X) const;

  LeafStats leafStats(const Particle &P, int32_t LeafIdx) const;

  /// Invokes \p Fn(PointIdx) for every point of leaf \p LeafIdx,
  /// including pending ones, in a deterministic order.
  template <typename Fn>
  void forEachLeafPoint(const Particle &P, int32_t LeafIdx, Fn &&F) const;

  /// Log marginal likelihood of a leaf with the given sufficient stats.
  double logMarginal(uint32_t N, double SumY, double SumY2) const;

  /// Log posterior predictive density of \p Y at a leaf.
  double logPredictive(const LeafStats &S, double Y) const;

  /// Leaf predictive mean/variance.
  Prediction leafPredictive(const LeafStats &S) const;

  /// Expected drop in a leaf's predictive variance from one extra sample.
  double leafVarianceDrop(const LeafStats &S) const;

  /// p_split at \p Depth; only ensureMarginalTables() evaluates it.
  double splitProbability(unsigned Depth) const;

  /// Start of each unique run's slice in a flat per-(run, node) table:
  /// run R's nodes occupy [Base[R], Base[R + 1]).
  std::vector<size_t> runNodeBases() const;

  /// The unique runs grouped by tree lineage, in lineage-id order: run R
  /// belongs to lineage Of[R]; lineage L holds runs
  /// Runs[Offsets[L], Offsets[L + 1]) in particle order and is walked
  /// through Trees[L], the tree of its first run.
  struct LineageGroups {
    std::vector<uint32_t> Of, Runs, Offsets;
    std::vector<const Tree *> Trees;
    size_t size() const { return Trees.size(); }
  };
  LineageGroups lineageGroups() const;

  /// Walks rows [Begin, End) of \p Rows through every lineage's tree,
  /// tree-major: Out[L * Stride + R - Begin] is the leaf of row R in
  /// lineage L (Stride >= End - Begin).
  void walkLineages(const LineageGroups &Lin, const FlatRows &Rows,
                    size_t Begin, size_t End, size_t Stride,
                    int32_t *Out) const;

  /// predict() at each of the first \p Count rows of \p Rows, sharded
  /// on \p Ctx's grid over the installed scheduler; returns the number of
  /// lineages, each of which walks every row once.  A leaf's mixture
  /// addends depend on the run and the leaf only, so they fill one flat
  /// (run, leaf) table first; a row then costs one lookup per run.  The
  /// one path behind almScores() and predictBatch().
  size_t mixtureBatch(const FlatRows &Rows, size_t Count,
                      const ScoreContext &Ctx, Prediction *Out) const;

  /// Gives \p P sole ownership of its tree with all pending points
  /// flushed: in place when already unique, by cloning when shared.
  /// Either path produces bit-identical tree contents.
  void materialize(Particle &P);

  /// Absorbs point \p PointIdx into leaf \p LeafIdx of the (uniquely
  /// owned) tree \p T: its stats and its chunk list.
  void absorbInto(Tree &T, int32_t LeafIdx, uint32_t PointIdx);

  /// Fills \p Order with the nodes of \p T the root reaches, in preorder
  /// (left subtree first), and returns how many chunks their leaves hold.
  static size_t livePreorder(const Tree &T, std::vector<int32_t> &Order);

  /// Rebuilds the sole-owned, pending-free \p T from its root in preorder,
  /// keeping only live nodes and chunks in exactly sized arenas.  Each
  /// leaf keeps its chunk list in list order, so forEachLeafPoint order —
  /// and with it every sum — is unchanged.
  void compact(Tree &T) const;

  /// Candidate-independent context of one propagate() call, cacheable
  /// across the consecutive aliases of a unique-particle run (same tree,
  /// same pending list => same leaf for the new point, same effective
  /// stats, same bounds).  boundLeaf() fills the bounds when the leaf can
  /// grow.  Only the validity flag carries semantics; the vectors are
  /// reusable buffers that live in thread-local storage to amortize
  /// allocation.
  struct GrowScratch {
    bool Valid = false;   ///< scratch describes the current run
    bool CanGrow = false; ///< leaf large enough for a grow proposal
    int32_t LeafIdx = -1;
    LeafStats Eff;
    double LStay = 0.0;
    std::vector<double> Lo, Hi; ///< leaf bounds incl. pending + new point
    std::vector<int> Spread;    ///< dimensions with Hi > Lo
  };

  /// Sets \p Lo and \p Hi to the per-dimension min and max over the
  /// points of leaf \p LeafIdx of \p P, pending included, in
  /// forEachLeafPoint order, then the row \p X: the box a grow proposal
  /// draws its cuts in.
  void boundLeaf(const Particle &P, int32_t LeafIdx, const double *X,
                 std::vector<double> &Lo, std::vector<double> &Hi) const;

  /// (dimension, cut) pairs a grow proposal draws and scores.
  static constexpr unsigned NumGrowTries = 4;

  /// One grow try: a cut of dimension Dim at Cut, and the count and the Y
  /// sums of the points it sends left (a point equal to the cut goes
  /// left).  The right side falls out of the leaf totals.
  struct GrowTry {
    int Dim = 0;
    double Cut = 0.0;
    uint32_t Nl = 0;
    double Sl = 0.0, Sl2 = 0.0;
  };

  /// Fills every try's Nl/Sl/Sl2 over the points of leaf \p LeafIdx of
  /// \p P, pending included, in forEachLeafPoint order, then the new point
  /// \p PointIdx: one pass scores all tries, two to a vector, reading
  /// each row from DataX and each Y from DataY.  Each try's sums receive
  /// the addends of a scan of that try alone, in the same order, so they
  /// are bitwise the same.
  void scoreGrowTries(const Particle &P, int32_t LeafIdx, uint32_t PointIdx,
                      GrowTry (&Tries)[NumGrowTries]) const;

  /// Applies one stay/prune/grow move for the new point \p PointIdx.
  /// \p ReuseScan says the caller knows \p P continues the unique run
  /// \p Scratch was built for (the run index pins this); otherwise the
  /// scratch is rebuilt.  Reuse changes no arithmetic — the scratch's leaf,
  /// stats and bounds are bitwise the ones this particle would compute.
  /// A grow, or a prune that leaves more than one leaf, gives the tree
  /// lineage \p NewLineage.
  void propagate(Particle &P, uint32_t PointIdx, Rng &R, GrowScratch &Scratch,
                 bool ReuseScan, uint64_t NewLineage);

  /// Recomputes the unique-particle run index (RunOffsets / RunOf) by
  /// grouping consecutive particles with one tree identity and one
  /// pending fingerprint.  Called after every ensemble mutation phase
  /// (seeding, resample, propagate) so scoring always sees a fresh
  /// index; O(NumParticles) pointer + pending compares.
  void rebuildRunIndex();

  /// SMC step for one point: optional reweight+resample, then parallel
  /// propagation.  \p Resample is false during batched seeding.
  void ingest(uint32_t PointIdx, bool Resample);

  /// Systematic resampling by normalized weights (counter-based pivot
  /// draw); shares trees copy-on-write instead of cloning them.
  void resampleParticles(const std::vector<double> &LogWeights);

  /// Counter-derived RNG stream of particle \p Index at SMC step \p Step:
  /// a pure function of (Config.Seed, Step, Index), so neither thread
  /// count nor particle scheduling order can perturb the draws.
  Rng particleRng(uint64_t Step, size_t Index) const;

  /// The lineage a grow or prune by particle \p Index at SMC step \p Step
  /// starts: nonzero and distinct for every (Step, Index).  A particle
  /// moves once per step, so no two moves share an id.
  static uint64_t freshLineage(uint64_t Step, size_t Index) {
    return ((Step + 1) << 32) | uint64_t(Index);
  }

  /// Extends the count-indexed logMarginal and Student-t tables to leaf
  /// counts up to \p MaxN, and the depth-indexed split-prior tables to
  /// depths up to \p MaxN (a depth-d leaf holds at least d + 1 points).
  /// Called single-threaded (fit/update) before any parallel phase reads
  /// them.
  void ensureMarginalTables(size_t MaxN);

  DynaTreeConfig Config;
  std::vector<Particle> Particles;
  size_t Dims = 0; ///< feature dimensionality (fixed by fit())
  FlatRows DataX;
  std::vector<double> DataY;
  // Empirical NIG prior (set from seed data).
  double PriorMean = 0.0;
  double PriorScale = 1.0; ///< b0 of the inverse gamma
  // Memoized logMarginal terms: every leaf count N maps An = A0 + N/2 and
  // Kn = K0 + N onto fixed grids, so the two logGamma and two of the
  // three log evaluations per call become table reads.  Entries hold the
  // exact values the direct evaluation would produce (bit-identical).
  std::vector<double> LogGammaAnTable; ///< logGamma(A0 + 0.5 * N)
  std::vector<double> LogKnTable;      ///< log(K0 + N)
  /// Student-t log normalizer at Df = 2 (A0 + 0.5 N), the degrees of
  /// freedom of a leaf holding N points (logPredictive()).
  std::vector<double> LogStudentTNormTable;
  // The split prior by depth d, for propagate()'s grow and prune terms.
  std::vector<double> LogSplitTable;   ///< log(p_split(d))
  std::vector<double> Log1mSplitTable; ///< log(1 - p_split(d))
  double LogGammaA0 = 0.0;
  double LogB0 = 0.0;
  double LogK0 = 0.0;
  double LastEss = 0.0;
  uint64_t StepCounter = 0; ///< SMC steps performed (one per point)
  Scheduler *Workers = nullptr;
  // Unique-particle run index: run R spans particles [RunOffsets[R],
  // RunOffsets[R+1]); RunOf maps a particle index to its run.  Rebuilt
  // by rebuildRunIndex() after every mutation phase.
  std::vector<uint32_t> RunOffsets;
  std::vector<uint32_t> RunOf;
};

} // namespace alic

#endif // ALIC_DYNATREE_DYNATREE_H
