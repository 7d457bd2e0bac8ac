//===- serve/ServeEngine.cpp ----------------------------------*- C++ -*-===//

#include "serve/ServeEngine.h"

#include "exp/Campaign.h"
#include "spapt/Suite.h"
#include "support/Error.h"
#include "support/FailPoint.h"
#include "support/Scheduler.h"
#include "support/Serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <initializer_list>

using namespace alic;

namespace {

constexpr uint32_t SnapshotMagic = 0x414c5356; // "ALSV"
// Version 2 added the query-policy fields and version 3 the payload
// checksum; older snapshots are treated as unreadable (skipped on
// restore), never misparsed.
constexpr uint32_t SnapshotVersion = 3;

void writeSpec(ByteWriter &W, const SessionSpec &Spec) {
  W.writeString(Spec.Benchmark);
  W.writeU8(uint8_t(Spec.Model));
  W.writeU8(uint8_t(Spec.Scorer));
  W.writeU8(uint8_t(Spec.Query.Kind));
  W.writeDouble(Spec.Query.Mellowness);
  W.writeDouble(Spec.Query.RangeC1);
  W.writeDouble(Spec.Query.AbsFloor);
  W.writeDouble(Spec.Query.RelFloor);
  W.writeU8(uint8_t(Spec.Plan.PlanKind));
  W.writeU32(Spec.Plan.FixedObservations);
  W.writeU32(Spec.Plan.MaxObservationsPerExample);
  W.writeU32(Spec.BatchSize);
  W.writeU64(Spec.Seed);
  W.writeU64(Spec.DatasetSeed);
  const ExperimentScale &S = Spec.Scale;
  W.writeU64(S.NumConfigs);
  W.writeDouble(S.TrainFraction);
  W.writeU32(S.MeanObservations);
  W.writeU32(S.NumInitial);
  W.writeU32(S.InitObservations);
  W.writeU32(S.MaxTrainingExamples);
  W.writeU32(S.CandidatesPerIteration);
  W.writeU32(S.ReferenceSetSize);
  W.writeU32(S.Particles);
  W.writeU32(S.Repetitions);
  W.writeU32(S.EvalEvery);
  W.writeU64(S.TestSubset);
  W.writeU32(S.ObservationCap);
}

/// True when a session could run \p Spec: every count positive, a split
/// fraction strictly inside (0, 1), and policy numbers finite and
/// non-negative — the ranges the wire and the scale presets produce.
bool runnableSpec(const SessionSpec &Spec) {
  const ExperimentScale &S = Spec.Scale;
  const QueryPolicyConfig &Q = Spec.Query;
  for (double V : {Q.Mellowness, Q.RangeC1, Q.AbsFloor, Q.RelFloor})
    if (!std::isfinite(V) || V < 0.0)
      return false;
  for (uint64_t Count : std::initializer_list<uint64_t>{
           Spec.Plan.FixedObservations, Spec.Plan.MaxObservationsPerExample,
           Spec.BatchSize, S.NumConfigs, S.MeanObservations, S.NumInitial,
           S.InitObservations, S.MaxTrainingExamples,
           S.CandidatesPerIteration, S.ReferenceSetSize, S.Particles,
           S.Repetitions, S.EvalEvery, S.TestSubset, S.ObservationCap})
    if (Count == 0)
      return false;
  return S.TrainFraction > 0.0 && S.TrainFraction < 1.0;
}

bool readSpec(ByteReader &R, SessionSpec &Spec) {
  uint8_t Model = 0, Scorer = 0, PolicyKind = 0, PlanKind = 0;
  uint32_t FixedObs = 0, MaxObs = 0, Batch = 0;
  R.readString(Spec.Benchmark);
  R.readU8(Model);
  R.readU8(Scorer);
  R.readU8(PolicyKind);
  R.readDouble(Spec.Query.Mellowness);
  R.readDouble(Spec.Query.RangeC1);
  R.readDouble(Spec.Query.AbsFloor);
  R.readDouble(Spec.Query.RelFloor);
  R.readU8(PlanKind);
  R.readU32(FixedObs);
  R.readU32(MaxObs);
  R.readU32(Batch);
  R.readU64(Spec.Seed);
  R.readU64(Spec.DatasetSeed);
  ExperimentScale &S = Spec.Scale;
  uint64_t NumConfigs = 0, TestSubset = 0;
  R.readU64(NumConfigs);
  R.readDouble(S.TrainFraction);
  R.readU32(S.MeanObservations);
  R.readU32(S.NumInitial);
  R.readU32(S.InitObservations);
  R.readU32(S.MaxTrainingExamples);
  R.readU32(S.CandidatesPerIteration);
  R.readU32(S.ReferenceSetSize);
  R.readU32(S.Particles);
  R.readU32(S.Repetitions);
  R.readU32(S.EvalEvery);
  R.readU64(TestSubset);
  R.readU32(S.ObservationCap);
  // Model, scorer, policy and plan bytes are valid exactly when their
  // token table has a row for them.
  if (!R.ok() || !tokenOf(ModelTokens, ModelKind(Model)) ||
      !tokenOf(ScorerTokens, ScorerKind(Scorer)) ||
      !tokenOf(PolicyTokens, QueryPolicyKind(PolicyKind)) ||
      !tokenOf(PlanTokens, SamplingPlan::Kind(PlanKind)))
    return false;
  Spec.Model = ModelKind(Model);
  Spec.Scorer = ScorerKind(Scorer);
  Spec.Query.Kind = QueryPolicyKind(PolicyKind);
  Spec.Plan.PlanKind = SamplingPlan::Kind(PlanKind);
  Spec.Plan.FixedObservations = FixedObs;
  Spec.Plan.MaxObservationsPerExample = MaxObs;
  Spec.BatchSize = Batch;
  S.NumConfigs = size_t(NumConfigs);
  S.TestSubset = size_t(TestSubset);
  return runnableSpec(Spec);
}

/// Raw bits of a double, for cache keys (0.75 and 0.7500001 must not
/// collide into one key through decimal formatting).
uint64_t doubleBits(double Value) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(Value), "double is not 64-bit");
  __builtin_memcpy(&Bits, &Value, sizeof(Bits));
  return Bits;
}

} // namespace

struct ServeEngine::Session {
  SessionSpec Spec;
  std::unique_ptr<SpaptBenchmark> Bench;
  std::shared_ptr<const Dataset> Data;
  std::unique_ptr<SurrogateModel> Model;
  std::unique_ptr<ActiveLearner> Learner;
  /// Append-only observation log; with Spec, the whole session state.
  std::vector<std::vector<double>> Events;
  double TotalCostSeconds = 0.0;
  unsigned SinceSnapshot = 0;
  /// The last snapshot attempt failed; SinceSnapshot is pinned at the
  /// cadence so the next observe retries (degrade, never abort).
  bool DirtySnapshot = false;
  /// Set (under M) by closeSession.  An in-flight call that resolved the
  /// session just before it left the table sees this after locking M and
  /// reports the session as unknown instead of mutating a closed one.
  bool Closed = false;
  std::mutex M;
};

ServeEngine::ServeEngine(ServeOptions Opts) : Opts(std::move(Opts)) {
  if (this->Opts.Threads > 0) {
    Scheduler::Options SO;
    SO.Threads = this->Opts.Threads;
    SO.StealSeed = this->Opts.StealSeed;
    Sched = std::make_unique<Scheduler>(SO);
  }
  // Never throws: without the directory, snapshot writes fail and the
  // sessions degrade to serving from memory.
  if (!this->Opts.StateDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(this->Opts.StateDir, Ec);
  }
  if (this->Opts.CheckpointEveryObserves == 0)
    this->Opts.CheckpointEveryObserves = 1;
}

ServeEngine::~ServeEngine() = default;

bool ServeEngine::validId(const std::string &Id) const {
  if (Id.empty() || Id.size() > 64)
    return false;
  for (char C : Id) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '.' || C == '_' || C == '-';
    if (!Ok)
      return false;
  }
  return true;
}

std::string ServeEngine::snapshotPath(const std::string &Id) const {
  return Opts.StateDir + "/sess-" + Id + ".alsv";
}

std::shared_ptr<const Dataset>
ServeEngine::datasetFor(const SessionSpec &Spec) {
  // Keyed on everything buildDataset consumes; called under EngineMutex.
  const ExperimentScale &S = Spec.Scale;
  std::string Key = Spec.Benchmark + "|" + std::to_string(S.NumConfigs) +
                    "|" + std::to_string(doubleBits(S.TrainFraction)) + "|" +
                    std::to_string(S.MeanObservations) + "|" +
                    std::to_string(Spec.DatasetSeed);
  auto It = Datasets.find(Key);
  if (It != Datasets.end())
    return It->second;
  auto B = createSpaptBenchmark(Spec.Benchmark);
  auto D = std::make_shared<Dataset>(
      loadOrBuildDataset(*B, S.NumConfigs, S.TrainFraction,
                         S.MeanObservations, Spec.DatasetSeed,
                         Opts.DatasetCacheDir));
  Datasets.emplace(Key, D);
  return D;
}

std::shared_ptr<ServeEngine::Session>
ServeEngine::buildSession(const SessionSpec &Spec, std::string &Err) {
  const std::vector<std::string> &Names = spaptBenchmarkNames();
  if (std::find(Names.begin(), Names.end(), Spec.Benchmark) == Names.end()) {
    Err = "unknown benchmark '" + Spec.Benchmark + "'";
    return nullptr;
  }
  auto S = std::make_shared<Session>();
  S->Spec = Spec;
  S->Bench = createSpaptBenchmark(Spec.Benchmark);
  S->Data = datasetFor(Spec);
  S->Model = makeSurrogateModel(Spec.Model, Spec.Scale, Spec.Seed);

  ActiveLearnerConfig Cfg;
  Spec.Scale.applyTo(Cfg);
  Cfg.Scorer = Spec.Scorer;
  Cfg.BatchSize = std::max(1u, Spec.BatchSize);
  Cfg.Seed = Spec.Seed;
  Cfg.Query = Spec.Query;
  S->Learner = std::make_unique<ActiveLearner>(
      *S->Bench, *S->Model, S->Data->Norm, S->Data->TrainPool, Spec.Plan,
      Cfg, Sched.get());
  return S;
}

void ServeEngine::snapshot(const std::string &Id, Session &S) {
  if (Opts.StateDir.empty())
    return;
  ByteWriter W;
  W.writeU32(SnapshotMagic);
  W.writeU32(SnapshotVersion);
  W.writeString(Id);
  writeSpec(W, S.Spec);
  W.writeU64(S.Events.size());
  for (const std::vector<double> &Costs : S.Events)
    W.writeDoubles(Costs);
  W.writeChecksum();
  Status St;
  FailOutcome F = ALIC_FAILPOINT("snapshot.write");
  if (F.Fire)
    St = Status::failure("snapshot " + snapshotPath(Id) + " (injected)",
                         F.Errno);
  else
    St = W.writeFileDurable(snapshotPath(Id));
  if (!St.ok()) {
    // Degrade: the session keeps serving from memory; pinning the counter
    // at the cadence makes the very next observe (or snapshotAll) retry.
    S.DirtySnapshot = true;
    S.SinceSnapshot = Opts.CheckpointEveryObserves;
    std::fprintf(stderr,
                 "alic_serve: snapshot of session '%s' failed: %s "
                 "(errno %d); serving from memory, will retry\n",
                 Id.c_str(), St.message().c_str(), St.errnoValue());
    return;
  }
  S.DirtySnapshot = false;
  S.SinceSnapshot = 0;
}

std::shared_ptr<ServeEngine::Session>
ServeEngine::find(const std::string &Id) const {
  std::lock_guard<std::mutex> Lock(EngineMutex);
  auto It = Sessions.find(Id);
  return It == Sessions.end() ? nullptr : It->second;
}

bool ServeEngine::openSession(const std::string &Id, const SessionSpec &Spec,
                              std::string &Err) {
  if (!validId(Id)) {
    Err = "invalid session id (want 1-64 chars of [A-Za-z0-9._-])";
    return false;
  }
  std::lock_guard<std::mutex> Lock(EngineMutex);
  if (Sessions.count(Id)) {
    Err = "session '" + Id + "' already exists";
    return false;
  }
  std::shared_ptr<Session> S = buildSession(Spec, Err);
  if (!S)
    return false;
  snapshot(Id, *S);
  Sessions.emplace(Id, std::move(S));
  return true;
}

bool ServeEngine::suggest(const std::string &Id, Suggestion &Out,
                          std::string &Err) {
  std::shared_ptr<Session> S = find(Id);
  if (!S) {
    Err = "unknown session '" + Id + "'";
    return false;
  }
  std::lock_guard<std::mutex> Lock(S->M);
  if (S->Closed) {
    Err = "unknown session '" + Id + "'";
    return false;
  }
  Out = S->Learner->suggest();
  return true;
}

bool ServeEngine::observe(const std::string &Id, uint64_t Ticket,
                          const std::vector<double> &Costs,
                          std::string &Err) {
  std::shared_ptr<Session> S = find(Id);
  if (!S) {
    Err = "unknown session '" + Id + "'";
    return false;
  }
  std::lock_guard<std::mutex> Lock(S->M);
  if (S->Closed) {
    Err = "unknown session '" + Id + "'";
    return false;
  }
  if (!S->Learner->suggestionOutstanding()) {
    Err = "no suggestion outstanding (call suggest first)";
    return false;
  }
  const Suggestion &Want = S->Learner->suggest();
  if (Ticket != Want.Ticket) {
    Err = "stale ticket " + std::to_string(Ticket) + " (outstanding is " +
          std::to_string(Want.Ticket) + ")";
    return false;
  }
  size_t WantCosts = Want.Configs.size() * Want.ObservationsPerConfig;
  if (Costs.size() != WantCosts) {
    Err = "expected " + std::to_string(WantCosts) + " cost(s), got " +
          std::to_string(Costs.size());
    return false;
  }
  if (!S->Learner->observe(Ticket, Costs)) {
    Err = "learner rejected the observation";
    return false;
  }
  S->Events.push_back(Costs);
  for (double C : Costs)
    S->TotalCostSeconds += C;
  if (++S->SinceSnapshot >= Opts.CheckpointEveryObserves)
    snapshot(Id, *S);
  return true;
}

bool ServeEngine::evaluate(const std::string &Id, double &Rmse,
                           std::string &Err) {
  std::shared_ptr<Session> S = find(Id);
  if (!S) {
    Err = "unknown session '" + Id + "'";
    return false;
  }
  std::lock_guard<std::mutex> Lock(S->M);
  if (S->Closed) {
    Err = "unknown session '" + Id + "'";
    return false;
  }
  if (!S->Learner->seeded()) {
    Err = "session has no model yet (still exploring)";
    return false;
  }
  const Dataset &D = *S->Data;
  size_t NumEval = std::min(S->Spec.Scale.TestSubset, D.TestFeatures.size());
  if (NumEval == 0) {
    Err = "empty test subset";
    return false;
  }
  Rmse = testSetRmse(*S->Model, D, NumEval);
  return true;
}

bool ServeEngine::sessionInfo(const std::string &Id, SessionInfo &Out,
                              std::string &Err) const {
  std::shared_ptr<Session> S = find(Id);
  if (!S) {
    Err = "unknown session '" + Id + "'";
    return false;
  }
  std::lock_guard<std::mutex> Lock(S->M);
  if (S->Closed) {
    Err = "unknown session '" + Id + "'";
    return false;
  }
  Out.Stats = S->Learner->stats();
  Out.TotalCostSeconds = S->TotalCostSeconds;
  Out.Observes = S->Events.size();
  Out.Done = S->Learner->done();
  Out.SnapshotDirty = S->DirtySnapshot;
  if (Out.Done)
    Out.Phase = SuggestPhase::Done;
  else if (!S->Learner->seeded())
    Out.Phase = SuggestPhase::Explore;
  else if (const Suggestion *Cur = S->Learner->outstanding())
    // Surface an all-skip round as such: the client's next move is an
    // empty observe, not a measurement.
    Out.Phase = Cur->Phase;
  else
    Out.Phase = SuggestPhase::Refine;
  return true;
}

bool ServeEngine::closeSession(const std::string &Id) {
  std::shared_ptr<Session> Doomed;
  {
    std::lock_guard<std::mutex> Lock(EngineMutex);
    auto It = Sessions.find(Id);
    if (It == Sessions.end())
      return false;
    Doomed = std::move(It->second);
    Sessions.erase(It);
  }
  // Any in-flight call that resolved the session just before it left the
  // table either finishes before this lock (its snapshot, if any, lands
  // before the remove below) or sees Closed and bails; the shared_ptr it
  // holds keeps the Session alive either way.
  {
    std::lock_guard<std::mutex> Lock(Doomed->M);
    Doomed->Closed = true;
  }
  if (!Opts.StateDir.empty()) {
    std::error_code Ec;
    std::filesystem::remove(snapshotPath(Id), Ec);
  }
  return true;
}

size_t ServeEngine::restoreSessions(size_t *Skipped) {
  size_t Bad = 0, Restored = 0;
  if (Skipped)
    *Skipped = 0;
  if (Opts.StateDir.empty())
    return 0;
  std::vector<std::string> Paths;
  {
    std::error_code Ec;
    std::filesystem::directory_iterator Dir(Opts.StateDir, Ec);
    if (!Ec)
      for (const auto &Entry : Dir) {
        std::string Name = Entry.path().filename().string();
        if (Name.rfind("sess-", 0) == 0 && Name.size() > 10 &&
            Name.substr(Name.size() - 5) == ".alsv")
          Paths.push_back(Entry.path().string());
      }
  }
  // Deterministic restore order (directory iteration order is not).
  std::sort(Paths.begin(), Paths.end());

  for (const std::string &Path : Paths) {
    ByteReader R({});
    uint32_t Magic = 0, Version = 0;
    std::string Id;
    SessionSpec Spec;
    uint64_t NumEvents = 0;
    if (ALIC_FAILPOINT("snapshot.restore").Fire)
      goto corrupt; // injected unreadable snapshot
    if (!ByteReader::fromFile(Path, R) || !R.verifyChecksum())
      goto corrupt;
    R.readU32(Magic);
    R.readU32(Version);
    R.readString(Id);
    if (!R.ok() || Magic != SnapshotMagic || Version != SnapshotVersion ||
        !validId(Id))
      goto corrupt;
    if (!readSpec(R, Spec))
      goto corrupt;
    R.readU64(NumEvents);
    // Each event is at least a u64 length prefix.
    if (!R.ok() || NumEvents > R.remaining() / 8)
      goto corrupt;
    {
      std::vector<std::vector<double>> Events;
      Events.resize(size_t(NumEvents));
      for (std::vector<double> &Costs : Events)
        if (!R.readDoubles(Costs))
          goto corrupt;
      if (!R.atEnd())
        goto corrupt;

      std::lock_guard<std::mutex> Lock(EngineMutex);
      if (Sessions.count(Id))
        goto corrupt; // duplicate snapshot for one id
      std::string Err;
      std::shared_ptr<Session> S = buildSession(Spec, Err);
      if (!S)
        goto corrupt;
      // Replay: state is a pure function of (spec, cost sequence), so
      // driving the recorded costs through the deterministic loop lands
      // exactly where the previous process stood.
      bool Replayed = true;
      for (const std::vector<double> &Costs : Events) {
        const Suggestion &Want = S->Learner->suggest();
        if (Want.Phase == SuggestPhase::Done ||
            !S->Learner->observe(Want.Ticket, Costs)) {
          Replayed = false;
          break;
        }
        for (double C : Costs)
          S->TotalCostSeconds += C;
      }
      if (!Replayed)
        goto corrupt;
      S->Events = std::move(Events);
      Sessions.emplace(Id, std::move(S));
      ++Restored;
      continue;
    }
  corrupt:
    ++Bad;
  }
  if (Skipped)
    *Skipped = Bad;
  return Restored;
}

size_t ServeEngine::snapshotAll() {
  if (Opts.StateDir.empty())
    return 0;
  std::vector<std::pair<std::string, std::shared_ptr<Session>>> Live;
  {
    std::lock_guard<std::mutex> Lock(EngineMutex);
    for (const auto &[Id, S] : Sessions)
      Live.emplace_back(Id, S);
  }
  size_t Clean = 0;
  for (auto &[Id, S] : Live) {
    std::lock_guard<std::mutex> Lock(S->M);
    if (S->Closed)
      continue;
    if (S->SinceSnapshot > 0 || S->DirtySnapshot)
      snapshot(Id, *S);
    if (!S->DirtySnapshot)
      ++Clean;
  }
  return Clean;
}

std::vector<std::string> ServeEngine::sessionIds() const {
  std::lock_guard<std::mutex> Lock(EngineMutex);
  std::vector<std::string> Ids;
  Ids.reserve(Sessions.size());
  for (const auto &[Id, S] : Sessions)
    Ids.push_back(Id);
  return Ids;
}

size_t ServeEngine::sessionCount() const {
  std::lock_guard<std::mutex> Lock(EngineMutex);
  return Sessions.size();
}
