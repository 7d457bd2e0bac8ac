//===- core/ActiveLearner.h - AL with sequential analysis -----*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's contribution (Algorithm 1): an active-learning loop whose
/// sampling plan is itself adaptive.
///
/// Classic active learning with a *fixed* plan draws some pre-set number
/// of observations (the comparison work [4] uses 35) for every training
/// example it selects, and never revisits an example.  The sequential
/// plan implemented here starts every example at a single observation and
/// keeps visited examples *in the candidate set* until they have received
/// nobs observations — so each iteration chooses between labelling a new
/// configuration and re-measuring a noisy one, whichever the model scores
/// as more informative (a multi-armed-bandit-style trade, Section 3.1).
///
/// The scorer follows Section 3.3: Cohn's ALC criterion by default
/// (select the candidate that most reduces the predicted average variance
/// across the space), with MacKay's ALM and uniform-random selection as
/// ablations.
///
/// The loop runs in one of two shapes.  The batch shape, step(), selects,
/// measures, and absorbs in one call — what `alic_run` and the campaigns
/// use.  The request/response shape splits the same iteration at the
/// measurement boundary: suggest() picks the next configuration(s) and
/// hands back a ticket; the caller measures however it likes; and
/// observe() folds the costs in.  step() is implemented *on* the split
/// (suggest → Profiler → observe), and because every pseudo-random draw
/// the learner makes happens inside suggest() while the virtual
/// profiler's draws are counter-based, the two shapes are bit-identical —
/// a learner driven over a wire by `alic_serve` retraces exactly the
/// state a local batch loop would.  This is also what makes sessions
/// replayable: state is a pure function of (config, seed, the sequence
/// of observed cost vectors), which is all a serve session log stores.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_CORE_ACTIVELEARNER_H
#define ALIC_CORE_ACTIVELEARNER_H

#include "core/QueryPolicy.h"
#include "measure/Profiler.h"
#include "model/SurrogateModel.h"
#include "tunable/Normalizer.h"
#include "tunable/ParamSpace.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace alic {

class Scheduler;

/// How many observations each selected training example receives.
struct SamplingPlan {
  /// The two plan families compared by the paper.
  enum class Kind {
    Fixed,      ///< k observations per example, no revisits (baselines)
    Sequential, ///< 1 observation at a time, revisits allowed (ours)
  };

  /// Which family this plan belongs to.
  Kind PlanKind = Kind::Sequential;

  /// Fixed plans: observations per example.  The paper's baseline uses
  /// 35; its second comparator uses 1.
  unsigned FixedObservations = 35;

  /// Sequential plans: cap on observations per example (the paper caps at
  /// 35, matching the baseline's budget).
  unsigned MaxObservationsPerExample = 35;

  /// A fixed plan taking \p Observations measurements per example.
  static SamplingPlan fixed(unsigned Observations);
  /// A sequential plan capped at \p Cap measurements per example.
  static SamplingPlan sequential(unsigned Cap = 35);
};

/// Candidate-scoring criterion (Section 3.3).
enum class ScorerKind {
  Alc,    ///< Cohn: expected reduction of average variance (default)
  Alm,    ///< MacKay: maximum predictive variance
  Random, ///< uniform choice (random-search ablation)
};

/// Parameters of the learning loop (paper values in Section 4.4).
struct ActiveLearnerConfig {
  unsigned NumInitial = 5;              ///< ninit seed examples
  unsigned InitObservations = 35;       ///< nobs for the seed examples
  unsigned MaxTrainingExamples = 2500;  ///< nmax (completion criterion)
  unsigned CandidatesPerIteration = 500; ///< nc fresh candidates per step
  unsigned ReferenceSetSize = 100;      ///< ALC reference sample size
  ScorerKind Scorer = ScorerKind::Alc;  ///< candidate-scoring criterion
  unsigned BatchSize = 1;               ///< examples labelled per iteration
  uint64_t Seed = 1;                    ///< root of every random stream
  /// Whether each model-guided pick is measured or skipped (QueryPolicy.h).
  /// The default (Always) keeps the loop bit-identical to a build without
  /// query policies.
  QueryPolicyConfig Query;
};

/// Progress counters.
struct LearnerStats {
  size_t Iterations = 0;       ///< refine picks consumed (excl. seeding),
                               ///< queried *or* skipped
  size_t DistinctExamples = 0; ///< unique configurations observed
  size_t Revisits = 0;         ///< re-measurements of known configurations
  size_t Observations = 0;     ///< total profiler runs (incl. seeding)
  size_t Skips = 0;            ///< picks the query policy declined to label
};

/// Where a Suggestion sits in the session lifecycle.
enum class SuggestPhase {
  Explore, ///< pre-fit seeding: measure ninit configs, no model involved
  Refine,  ///< model-guided selection (the steady state of Alg. 1)
  Skip,    ///< the query policy declined every pick this iteration:
           ///< nothing to measure, but the suggestion still carries a
           ///< ticket that must be observed (with zero costs) to advance
  Done,    ///< completion criterion met; nothing to measure
};

/// One request-sized unit of work handed to the measurement side: the
/// configuration(s) the learner wants costs for, and the ticket that the
/// matching observe() call must quote.  Returned by reference from
/// ActiveLearner::suggest() and owned by the learner; the reference stays
/// valid until the suggestion is observed (or the learner is destroyed).
struct Suggestion {
  /// Opaque id pairing this suggestion with its observe() call.  Tickets
  /// are issued from a deterministic per-learner counter starting at 1,
  /// so a replayed session re-issues identical tickets.  0 when Phase is
  /// Done (there is nothing to observe).
  uint64_t Ticket = 0;

  /// Lifecycle phase this suggestion was issued in.
  SuggestPhase Phase = SuggestPhase::Done;

  /// Configurations to measure, in order.  Empty when Phase is Done.
  std::vector<Config> Configs;

  /// Measurements wanted per configuration.  observe() expects exactly
  /// Configs.size() * ObservationsPerConfig costs, grouped by
  /// configuration (all costs for Configs[0] first).  In particular a
  /// Skip-phase suggestion (Configs empty) must be observed with an
  /// *empty* cost vector; costs for skipped configurations are rejected.
  unsigned ObservationsPerConfig = 0;

  /// Configurations the query policy declined this iteration (empty under
  /// the default Always policy).  They are consumed — removed from the
  /// candidate pool, counted in LearnerStats::Skips — but must not be
  /// measured; any costs passed to observe() pair with Configs only.
  std::vector<Config> Skipped;
};

/// The active-learning loop of Algorithm 1.
///
/// **Thread-safety:** not internally synchronized — drive each learner
/// from one thread at a time (alic_serve wraps each session's learner in
/// a mutex).  The learner may *internally* fan work out across the
/// installed Scheduler; that parallelism never changes results.
///
/// **Determinism:** every random draw derives from Cfg.Seed (selection
/// draws from one sequential stream consumed only inside suggest();
/// virtual-measurement draws are counter-based per configuration).
/// Consequently (a) results are bit-identical at any scheduler worker
/// count including none, and (b) a learner's entire state is a pure
/// function of its constructor arguments and the sequence of cost
/// vectors passed to observe().
///
/// **Ownership:** the oracle and model are borrowed and must outlive the
/// learner; the pool and normalizer are copied in.
class ActiveLearner {
public:
  /// \p Pool is the set F of configurations available for training;
  /// \p Norm maps raw feature vectors to model space.  The model must be
  /// unfitted; seeding happens on the first step()/suggest().  When
  /// \p Workers is non-null, candidate scoring is sharded across it; the
  /// loop's results are bit-identical with or without a scheduler, at any
  /// worker count.  The loop itself may run inside a scheduler task (a
  /// campaign cell): its inner shards fork onto the same pool and idle
  /// workers steal them.
  ActiveLearner(const WorkloadOracle &Oracle, SurrogateModel &Model,
                Normalizer Norm, std::vector<Config> Pool, SamplingPlan Plan,
                ActiveLearnerConfig Cfg, Scheduler *Workers = nullptr);

  /// Runs one loop iteration (the first call performs the seeding phase)
  /// labelling Cfg.BatchSize examples.  Returns false when the completion
  /// criterion is met.
  bool step();

  /// Runs one loop iteration labelling up to \p Batch top-scored
  /// candidates (the parallel variant the paper describes after Alg. 1).
  /// Every labelled example is charged to the Profiler ledger and counted
  /// in stats() exactly as in the one-at-a-time path.  Equivalent to
  /// suggest(Batch) + virtual measurement + observe().
  bool step(unsigned Batch);

  /// Selects the next configuration(s) to measure without measuring them:
  /// the first call returns the ninit seed configurations (Explore — the
  /// model is untouched until their costs arrive); later calls run
  /// candidate assembly and scoring for up to \p Batch picks (Refine);
  /// once the completion criterion holds the phase is Done.  When a
  /// query policy is configured (Cfg.Query), picks it declines are
  /// returned in Suggestion::Skipped rather than Configs — and when it
  /// declines every pick the phase is Skip: nothing to measure, but the
  /// ticket must still be observed (with no costs) to advance.  While a
  /// suggestion is outstanding (issued but not yet observed) this is
  /// idempotent: it returns the same suggestion again and ignores
  /// \p Batch, so a client that lost a reply can simply re-ask.  The
  /// returned reference is owned by the learner and is invalidated by the
  /// next state-changing call.
  const Suggestion &suggest(unsigned Batch);

  /// Same, labelling Cfg.BatchSize examples per iteration.
  const Suggestion &suggest() { return suggest(std::max(1u, Cfg.BatchSize)); }

  /// Folds measured costs into the learner: fits the model on the seed
  /// costs (Explore) or updates it with the selected examples (Refine),
  /// and advances all bookkeeping.  \p Ticket must be the outstanding
  /// suggestion's ticket and \p Costs must hold exactly
  /// Configs.size() * ObservationsPerConfig values grouped by
  /// configuration; returns false (and changes nothing) otherwise.  Costs
  /// pair with the *queried* configurations only: suggestions whose picks
  /// were all declined by the query policy (phase Skip) must be observed
  /// with an empty cost vector — supplying costs for skipped configs is
  /// rejected.  Deterministic: no random draws happen here, so replaying
  /// a recorded cost sequence reproduces the learner's state (including
  /// every skip decision) bit-identically.
  bool observe(uint64_t Ticket, const std::vector<double> &Costs);

  /// Installs (or removes, with nullptr) the scheduler.  It shards
  /// candidate scoring, batched measurement, and the model's internal
  /// work (the dynamic tree's per-particle SMC update); results stay
  /// bit-identical at any worker count.
  void setScheduler(Scheduler *Workers) {
    this->Workers = Workers;
    Model.setScheduler(Workers);
  }

  /// True when nmax training examples have been absorbed.
  bool done() const;

  /// True once the seed costs have been absorbed and the model fitted
  /// (the Explore → Refine transition).
  bool seeded() const { return Seeded; }

  /// True while a suggestion has been issued but not yet observed.
  bool suggestionOutstanding() const { return HasOutstanding; }

  /// The outstanding suggestion without issuing a new one; nullptr when
  /// none is outstanding (read-only peek for status reporting).
  const Suggestion *outstanding() const {
    return HasOutstanding ? &Outstanding : nullptr;
  }

  /// Cumulative virtual profiling cost (the paper's evaluation-time axis).
  /// Only the batch step() path charges this ledger; sessions driven via
  /// suggest()/observe() account cost on the serving side.
  double cumulativeCostSeconds() const { return Prof.ledger().totalSeconds(); }

  /// Progress counters (iterations, distinct examples, revisits, runs).
  const LearnerStats &stats() const { return Stats; }
  /// The virtual profiler backing the batch step() path.
  const Profiler &profiler() const { return Prof; }
  /// The surrogate being trained.
  SurrogateModel &model() { return Model; }
  /// The feature normalizer examples are transformed through.
  const Normalizer &normalizer() const { return Norm; }

private:
  std::vector<double> featuresOf(const Config &C) const;
  const Suggestion &suggestSeed();

  const WorkloadOracle &Oracle;
  SurrogateModel &Model;
  Normalizer Norm;
  std::vector<Config> Pool;
  SamplingPlan Plan;
  ActiveLearnerConfig Cfg;
  Profiler Prof;
  Rng Generator;
  Scheduler *Workers = nullptr;

  /// Indices into Pool that have never been selected.
  std::vector<uint32_t> Unseen;
  /// Visited pool indices with fewer than the cap's observations (the
  /// paper's D map), sequential plans only.
  std::vector<uint32_t> Revisitable;
  std::unordered_map<uint32_t, unsigned> ObsCount;

  /// Query policy consulted on refine picks; null under Always (the fast
  /// path then never touches policy code).
  std::unique_ptr<QueryPolicy> Policy;

  /// Pool indices behind the outstanding suggestion, in *pick* order —
  /// queried and skipped picks interleaved as selected (with, for Refine,
  /// whether each pick is a revisit and whether it is to be measured).
  /// observe() walks these in order, consuming costs only for queried
  /// picks, so skip bookkeeping replays deterministically.
  std::vector<uint32_t> PendingIdx;
  std::vector<uint8_t> PendingRevisit;
  std::vector<uint8_t> PendingQueried;
  Suggestion Outstanding;
  bool HasOutstanding = false;
  uint64_t NextTicket = 1;

  bool Seeded = false;
  LearnerStats Stats;
};

} // namespace alic

#endif // ALIC_CORE_ACTIVELEARNER_H
