//===- core/ActiveLearner.cpp ---------------------------------*- C++ -*-===//

#include "core/ActiveLearner.h"

#include "stats/Metrics.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>

using namespace alic;

SamplingPlan SamplingPlan::fixed(unsigned Observations) {
  SamplingPlan P;
  P.PlanKind = Kind::Fixed;
  P.FixedObservations = Observations;
  return P;
}

SamplingPlan SamplingPlan::sequential(unsigned Cap) {
  SamplingPlan P;
  P.PlanKind = Kind::Sequential;
  P.MaxObservationsPerExample = Cap;
  return P;
}

namespace {

/// How labelling one pick moves the learner's candidate bookkeeping.
/// Shared by the batch pre-simulation in suggest() and the absorption
/// loop in observe() so the two can never drift apart.
struct PickOutcome {
  bool TakesUnseen;       ///< the pick leaves the unseen pool
  bool JoinsRevisitable;  ///< a fresh pick still short of the cap
  bool LeavesRevisitable; ///< a revisit that just reached the cap
};

PickOutcome pickOutcome(const SamplingPlan &Plan, bool Revisit,
                        unsigned PrevObsCount) {
  if (Plan.PlanKind == SamplingPlan::Kind::Fixed)
    return {true, false, false};
  unsigned Count = PrevObsCount + 1;
  if (Revisit)
    return {false, false, Count >= Plan.MaxObservationsPerExample};
  return {true, Count < Plan.MaxObservationsPerExample, false};
}

} // namespace

ActiveLearner::ActiveLearner(const WorkloadOracle &Oracle,
                             SurrogateModel &Model, const Normalizer &Norm,
                             const ConfigPool &Pool, SamplingPlan Plan,
                             ActiveLearnerConfig Cfg, Scheduler *Workers)
    : Model(Model), Pool(Pool), Plan(Plan), Cfg(Cfg),
      Prof(Oracle, hashCombine({Cfg.Seed, 0x50524f46ull})),
      Generator(Cfg.Seed), Policy(QueryPolicy::create(Cfg.Query)) {
  assert(!Pool.empty() && "training pool must not be empty");
  assert(Pool.rows().dim() == Norm.numDims() &&
         "pool rows were not derived with this normalizer");
  (void)Norm;
  assert(Cfg.NumInitial >= 1 && "need at least one seed example");
  setScheduler(Workers);
  Unseen.resize(Pool.size());
  for (size_t I = 0; I != Pool.size(); ++I)
    Unseen[I] = uint32_t(I);
}

bool ActiveLearner::done() const {
  if (!Seeded)
    return false;
  if (Stats.Iterations >= Cfg.MaxTrainingExamples)
    return true;
  return Unseen.empty() && Revisitable.empty();
}

const Suggestion &ActiveLearner::suggestSeed() {
  // Select ninit random examples for a full set of observations each, so
  // the learner starts from a quick but accurate look at the space
  // (Section 3.1: "good quality data" for the seed).  The draws mutate
  // Unseen immediately — later bounded draws depend on its size — so the
  // selection is committed even though the costs have not arrived yet.
  PendingIdx.clear();
  PendingRevisit.clear();
  PendingQueried.clear();
  unsigned NumSeed =
      std::min<unsigned>(Cfg.NumInitial, unsigned(Unseen.size()));
  for (unsigned I = 0; I != NumSeed; ++I) {
    size_t Slot = size_t(Generator.nextBounded(Unseen.size()));
    uint32_t PoolIdx = Unseen[Slot];
    Unseen[Slot] = Unseen.back();
    Unseen.pop_back();
    PendingIdx.push_back(PoolIdx);
  }
  Outstanding.Phase = SuggestPhase::Explore;
  Outstanding.ObservationsPerConfig = Cfg.InitObservations;
  Outstanding.Configs.reserve(PendingIdx.size());
  for (uint32_t PoolIdx : PendingIdx)
    Outstanding.Configs.push_back(Pool[PoolIdx]);
  Outstanding.Ticket = NextTicket++;
  HasOutstanding = true;
  return Outstanding;
}

const Suggestion &ActiveLearner::suggest(unsigned Batch) {
  if (HasOutstanding)
    return Outstanding;
  Outstanding = Suggestion();
  if (!Seeded)
    return suggestSeed();
  if (done())
    return Outstanding; // Phase == Done, ticket 0
  Batch = std::max(1u, Batch);

  // --- Assemble the candidate set (Alg. 1 lines 7-11) -------------------
  // Ids[0..NumCand) are the candidates' pool indices: nc never-observed
  // configurations, then every visited example still short of the
  // observation cap (the revisits, Pick >= NumFresh).  ALC appends its
  // reference sample's pool indices to the same buffer, so the ids the
  // model is handed cost no allocation of their own.
  unsigned Nc = std::min<size_t>(Cfg.CandidatesPerIteration, Unseen.size());
  std::vector<size_t> Fresh = Generator.sampleIndices(Unseen.size(), Nc);
  size_t NumFresh = Fresh.size();
  size_t NumCand = NumFresh + Revisitable.size();
  unsigned NumRef = std::min<size_t>(Cfg.ReferenceSetSize, Pool.size());
  std::vector<uint32_t> Ids;
  Ids.reserve(NumCand + (Cfg.Scorer == ScorerKind::Alc ? NumRef : 0));
  for (size_t Slot : Fresh)
    Ids.push_back(Unseen[Slot]);
  Ids.insert(Ids.end(), Revisitable.begin(), Revisitable.end());
  if (NumCand == 0)
    return Outstanding; // unreachable given !done(), kept as a safeguard

  // --- Score the candidates (Alg. 1 lines 12-20) ------------------------
  // Scorers are closed-form and shard on a fixed grid over the model's
  // scheduler, so installing a thread pool (or changing its size) can
  // never perturb the learner's random streams.
  ScoreContext Ctx;

  std::vector<size_t> Chosen;
  if (Cfg.Scorer == ScorerKind::Random) {
    std::vector<size_t> Order =
        Generator.sampleIndices(NumCand, std::min<size_t>(Batch, NumCand));
    Chosen = Order;
  } else {
    // Candidate and reference rows are copied from the pool's derived
    // rows into contiguous FlatRows buffers — the layout every surrogate
    // scores from — and their pool indices ride along as ids, so a model
    // can key per-point caches by them.
    FlatRows CandFeatures;
    CandFeatures.reserveRows(NumCand);
    for (size_t C = 0; C != NumCand; ++C)
      CandFeatures.push(Pool.row(Ids[C]));

    std::vector<double> Scores;
    if (Cfg.Scorer == ScorerKind::Alm) {
      Ctx.CandidateIds = Ids.data();
      Scores = Model.almScores(CandFeatures, Ctx);
    } else {
      // Reference sample over which the average variance is minimized.
      FlatRows Ref;
      Ref.reserveRows(NumRef);
      for (size_t Slot : Generator.sampleIndices(Pool.size(), NumRef)) {
        Ref.push(Pool.row(Slot));
        Ids.push_back(uint32_t(Slot));
      }
      Ctx.CandidateIds = Ids.data();
      Ctx.ReferenceIds = Ids.data() + NumCand;
      Scores = Model.alcScores(CandFeatures, Ref, Ctx);
    }

    // Top-Batch scores (selecting several examples per loop iteration is
    // the parallel variant the paper mentions after Alg. 1).
    std::vector<size_t> Order(NumCand);
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    std::partial_sort(Order.begin(),
                      Order.begin() + std::min<size_t>(Batch, Order.size()),
                      Order.end(), [&Scores](size_t A, size_t B) {
                        return Scores[A] > Scores[B];
                      });
    Order.resize(std::min<size_t>(Batch, Order.size()));
    Chosen = Order;
  }

  // The completion criterion can trip mid-batch; simulate the bookkeeping
  // up front so only the picks that will actually be absorbed are
  // suggested (and measured, and charged to the caller's ledger).  The
  // query policy is consulted here, in pick order, so the skip/query
  // sequence is a pure function of the replayed state (QueryPolicy.h):
  // replaying a recorded cost stream reproduces every decision.
  std::vector<uint8_t> Queried;
  {
    size_t Executable = 0;
    size_t Iter = Stats.Iterations;
    size_t UnseenLeft = Unseen.size();
    size_t RevisitableLeft = Revisitable.size();
    for (size_t Pick : Chosen) {
      // done()'s two conditions on the simulated state.
      if (Iter >= Cfg.MaxTrainingExamples ||
          (UnseenLeft == 0 && RevisitableLeft == 0))
        break;
      uint32_t PoolIdx = Ids[Pick];
      bool Revisit = Pick >= NumFresh;
      bool Label = true;
      if (Policy) {
        Prediction P = Model.predict(Pool.row(PoolIdx));
        QueryDecision D;
        D.Mean = P.Mean;
        D.Variance = P.Variance;
        D.StreamPosition = Iter;
        Label = Policy->shouldQuery(D);
      }
      auto It = ObsCount.find(PoolIdx);
      // A declined pick is consumed unlabelled: a fresh one leaves the
      // unseen pool without joining the revisit set, a revisit is retired
      // (the policy judged further measurements there uninformative).
      PickOutcome O =
          Label ? pickOutcome(Plan, Revisit,
                              It == ObsCount.end() ? 0 : It->second)
                : PickOutcome{!Revisit, false, Revisit};
      UnseenLeft -= O.TakesUnseen;
      RevisitableLeft += O.JoinsRevisitable;
      RevisitableLeft -= O.LeavesRevisitable;
      ++Iter;
      ++Executable;
      Queried.push_back(Label);
    }
    Chosen.resize(Executable);
  }
  if (Chosen.empty())
    return Outstanding; // unreachable given !done(), kept as a safeguard

  PendingIdx.clear();
  PendingRevisit.clear();
  PendingQueried.clear();
  size_t NumQueried = 0;
  for (uint8_t Q : Queried)
    NumQueried += Q;
  Outstanding.Phase =
      NumQueried == 0 ? SuggestPhase::Skip : SuggestPhase::Refine;
  Outstanding.ObservationsPerConfig =
      NumQueried == 0 ? 0
      : Plan.PlanKind == SamplingPlan::Kind::Fixed ? Plan.FixedObservations
                                                   : 1;
  Outstanding.Configs.reserve(NumQueried);
  Outstanding.Skipped.reserve(Chosen.size() - NumQueried);
  for (size_t I = 0; I != Chosen.size(); ++I) {
    uint32_t PoolIdx = Ids[Chosen[I]];
    PendingIdx.push_back(PoolIdx);
    PendingRevisit.push_back(Chosen[I] >= NumFresh);
    PendingQueried.push_back(Queried[I]);
    (Queried[I] ? Outstanding.Configs : Outstanding.Skipped)
        .push_back(Pool[PoolIdx]);
  }
  Outstanding.Ticket = NextTicket++;
  HasOutstanding = true;
  return Outstanding;
}

bool ActiveLearner::observe(uint64_t Ticket,
                            const std::vector<double> &Costs) {
  if (!HasOutstanding || Ticket != Outstanding.Ticket)
    return false;
  size_t PerConfig = Outstanding.ObservationsPerConfig;
  if (Costs.size() != Outstanding.Configs.size() * PerConfig)
    return false;

  if (Outstanding.Phase == SuggestPhase::Explore) {
    FlatRows X;
    std::vector<double> Y;
    for (size_t I = 0; I != PendingIdx.size(); ++I) {
      Stats.Observations += PerConfig;
      ++Stats.DistinctExamples;
      X.push(Pool.row(PendingIdx[I]));
      Y.push_back(arithmeticMean(Costs.data() + I * PerConfig, PerConfig));
      if (Policy)
        Policy->onLabel(Y.back());
    }
    Model.fit(X, Y);
    Seeded = true;
    HasOutstanding = false;
    return true;
  }

  // --- Absorb the pick(s); only labelled ones update the model ----------
  // PendingIdx holds queried and skipped picks interleaved in selection
  // order; the cost cursor advances only over queried picks, so the
  // suggest()-time simulation and this loop walk identical sequences.
  size_t Cursor = 0;
  for (size_t Slot = 0; Slot != PendingIdx.size(); ++Slot) {
    uint32_t PoolIdx = PendingIdx[Slot];
    bool Revisit = PendingRevisit[Slot] != 0;
    bool Labelled = PendingQueried.empty() || PendingQueried[Slot] != 0;
    PickOutcome O = [&] {
      if (!Labelled)
        return PickOutcome{!Revisit, false, Revisit};
      auto It = ObsCount.find(PoolIdx);
      return pickOutcome(Plan, Revisit,
                         It == ObsCount.end() ? 0 : It->second);
    }();

    if (!Labelled) {
      ++Stats.Skips;
    } else if (Plan.PlanKind == SamplingPlan::Kind::Fixed) {
      double Y = arithmeticMean(Costs.data() + Cursor, PerConfig);
      Cursor += PerConfig;
      Stats.Observations += PerConfig;
      ++Stats.DistinctExamples;
      Model.update(Pool.row(PoolIdx), Y);
      if (Policy)
        Policy->onLabel(Y);
    } else {
      double Y = Costs[Cursor++];
      ++Stats.Observations;
      Model.update(Pool.row(PoolIdx), Y);
      if (Policy)
        Policy->onLabel(Y);
      ++ObsCount[PoolIdx];
      if (Revisit)
        ++Stats.Revisits;
      else
        ++Stats.DistinctExamples;
    }

    if (O.JoinsRevisitable)
      Revisitable.push_back(PoolIdx);
    if (O.LeavesRevisitable) {
      auto It = std::find(Revisitable.begin(), Revisitable.end(), PoolIdx);
      if (It != Revisitable.end()) {
        *It = Revisitable.back();
        Revisitable.pop_back();
      }
    }
    if (O.TakesUnseen) {
      // Remove the configuration from the unseen pool.
      auto It = std::find(Unseen.begin(), Unseen.end(), PoolIdx);
      assert(It != Unseen.end() && "fresh candidate missing from pool");
      *It = Unseen.back();
      Unseen.pop_back();
    }
    ++Stats.Iterations;
  }
  HasOutstanding = false;
  return true;
}

bool ActiveLearner::step() { return step(std::max(1u, Cfg.BatchSize)); }

bool ActiveLearner::step(unsigned Batch) {
  const Suggestion &S = suggest(Batch);
  if (S.Phase == SuggestPhase::Done)
    return false;

  // Measure through the virtual profiler.  Its draws are counter-based
  // per configuration, so measuring the whole suggestion here — after
  // all of suggest()'s selection draws — yields values bit-identical to
  // the historical interleaved select/measure loop.  A Skip-phase
  // suggestion has nothing to measure: the empty cost vector still has
  // to be observed to advance past the declined picks.
  std::vector<double> Costs;
  Costs.reserve(S.Configs.size() * S.ObservationsPerConfig);
  for (const Config &C : S.Configs) {
    std::vector<double> Obs = Prof.measure(C, S.ObservationsPerConfig);
    Costs.insert(Costs.end(), Obs.begin(), Obs.end());
  }

  bool Absorbed = observe(S.Ticket, Costs);
  assert(Absorbed && "batch step failed to absorb its own measurements");
  (void)Absorbed;
  return true;
}
