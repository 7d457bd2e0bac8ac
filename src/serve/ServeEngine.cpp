//===- serve/ServeEngine.cpp ----------------------------------*- C++ -*-===//

#include "serve/ServeEngine.h"

#include "spapt/Suite.h"
#include "support/Error.h"
#include "support/FailPoint.h"
#include "support/Scheduler.h"
#include "support/Serialize.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <initializer_list>
#include <system_error>
#include <utility>

using namespace alic;

namespace {

constexpr uint32_t SessionLogMagic = 0x414c5356; // "ALSV"
// Version 2 added the query-policy fields, version 3 the checksum and
// version 4 the append-only log in place of a whole-session snapshot;
// other versions are skipped on restore, never misparsed.
constexpr uint32_t SessionLogVersion = 4;

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

/// One session-log line: the lowercase hex of \p W's bytes, which end in
/// writeChecksum.  Hex keeps a line free of newline bytes.
std::string hexLine(const ByteWriter &W) {
  static const char Digits[] = "0123456789abcdef";
  std::string Line;
  for (uint8_t Byte : W.bytes()) {
    Line += Digits[Byte >> 4];
    Line += Digits[Byte & 15];
  }
  return Line;
}

/// Decodes a hexLine into \p Out and verifies its checksum; false on any
/// other text.
bool readHexLine(const std::string &Line, ByteReader &Out) {
  if (Line.size() % 2)
    return false;
  std::vector<uint8_t> Bytes(Line.size() / 2);
  for (size_t I = 0; I != Line.size(); ++I) {
    char C = Line[I];
    int Nibble = C >= '0' && C <= '9'   ? C - '0'
                 : C >= 'a' && C <= 'f' ? C - 'a' + 10
                                        : -1;
    if (Nibble < 0)
      return false;
    Bytes[I / 2] = uint8_t(Bytes[I / 2] << 4 | Nibble);
  }
  Out = ByteReader(std::move(Bytes));
  return Out.verifyChecksum();
}

/// A failed durable write as a client reads it: the step, path and errno
/// (std::strerror is not thread-safe; the category's message is).
std::string describe(const Status &St) {
  return St.message() + ": " +
         std::generic_category().message(St.errnoValue()) + " (errno " +
         std::to_string(St.errnoValue()) + ")";
}

/// Appends the record (\p Ticket, \p Costs) to the session log \p Path
/// and fsyncs it.  Opening per record holds no descriptor between
/// observes, and openAppendLog seals a remnant an earlier failed append
/// left.  Fault-injection sites: session.append and session.sync.
Status appendRecord(const std::string &Path, uint64_t Ticket,
                    const std::vector<double> &Costs) {
  ByteWriter W;
  W.writeU64(Ticket);
  W.writeDoubles(Costs);
  W.writeChecksum();
  std::FILE *Out = openAppendLog(Path);
  if (!Out)
    return Status::failure("open " + Path, errno);
  bool NeedSeal = false;
  Status St = appendLogLine(Out, Path, hexLine(W), NeedSeal,
                            "session.append", "session.sync");
  std::fclose(Out);
  return St;
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

/// One dataset and the benchmark it samples, shared by every session on
/// that (benchmark, scale, dataset seed).  The first caller builds both
/// outside every engine lock; concurrent callers for the same key wait on
/// Built, callers for other keys do not wait at all.  Both are immutable
/// once built: the learners read the benchmark through const calls only
/// and borrow the dataset's pool rows.
struct ServeEngine::DatasetEntry {
  std::once_flag Built;
  std::unique_ptr<const SpaptBenchmark> Bench;
  Dataset Data;
};

struct ServeEngine::Session {
  SessionSpec Spec;
  /// Declared before the learner, which borrows the entry's benchmark
  /// and pool, so it is destroyed after it.
  std::shared_ptr<const DatasetEntry> Entry;
  std::unique_ptr<SurrogateModel> Model;
  std::unique_ptr<ActiveLearner> Learner;
  double TotalCostSeconds = 0.0;
  size_t Observes = 0;
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
  // Never throws: without the directory, every open fails and says so.
  if (!this->Opts.StateDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(this->Opts.StateDir, Ec);
  }
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

std::string ServeEngine::logPath(const std::string &Id) const {
  return Opts.StateDir + "/sess-" + Id + ".alsv";
}

std::shared_ptr<const ServeEngine::DatasetEntry>
ServeEngine::datasetFor(const SessionSpec &Spec) {
  // Keyed on everything buildDataset consumes.  Only the slot lookup
  // holds a lock; the build runs outside it, once per key.
  const ExperimentScale &S = Spec.Scale;
  std::string Key = Spec.Benchmark + "|" + std::to_string(S.NumConfigs) +
                    "|" + std::to_string(doubleBits(S.TrainFraction)) + "|" +
                    std::to_string(S.MeanObservations) + "|" +
                    std::to_string(Spec.DatasetSeed);
  std::shared_ptr<DatasetEntry> Entry;
  {
    std::lock_guard<std::mutex> Lock(DatasetsMutex);
    std::shared_ptr<DatasetEntry> &Slot = Datasets[Key];
    if (!Slot)
      Slot = std::make_shared<DatasetEntry>();
    Entry = Slot;
  }
  std::call_once(Entry->Built, [&] {
    Entry->Bench = createSpaptBenchmark(Spec.Benchmark);
    Entry->Data = loadOrBuildDataset(*Entry->Bench, S.NumConfigs,
                                     S.TrainFraction, S.MeanObservations,
                                     Spec.DatasetSeed, Opts.DatasetCacheDir);
  });
  return Entry;
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
  S->Entry = datasetFor(Spec);
  S->Model = makeSurrogateModel(Spec.Model, Spec.Scale, Spec.Seed);

  ActiveLearnerConfig Cfg;
  Spec.Scale.applyTo(Cfg);
  Cfg.Scorer = Spec.Scorer;
  Cfg.BatchSize = std::max(1u, Spec.BatchSize);
  Cfg.Seed = Spec.Seed;
  Cfg.Query = Spec.Query;
  const Dataset &D = S->Entry->Data;
  S->Learner = std::make_unique<ActiveLearner>(
      *S->Entry->Bench, *S->Model, D.Norm, D.TrainPool, Spec.Plan, Cfg,
      Sched.get());
  return S;
}

struct ServeEngine::LockedSession {
  std::shared_ptr<Session> S;
  /// Declared after S, so the mutex is released before S can free it.
  std::unique_lock<std::mutex> Lock;

  explicit operator bool() const { return S != nullptr; }
  Session *operator->() const { return S.get(); }
};

ServeEngine::LockedSession
ServeEngine::lockSession(const std::string &Id, std::string &Err) const {
  LockedSession L;
  {
    std::lock_guard<std::mutex> Lock(EngineMutex);
    auto It = Sessions.find(Id);
    if (It != Sessions.end())
      L.S = It->second;
  }
  if (L.S) {
    L.Lock = std::unique_lock<std::mutex>(L.S->M);
    if (!L.S->Closed)
      return L;
  }
  Err = "unknown session '" + Id + "'";
  return {};
}

bool ServeEngine::openSession(const std::string &Id, const SessionSpec &Spec,
                              std::string &Err) {
  if (!validId(Id)) {
    Err = "invalid session id (want 1-64 chars of [A-Za-z0-9._-])";
    return false;
  }
  auto Exists = [&] {
    if (!Sessions.count(Id))
      return false;
    Err = "session '" + Id + "' already exists";
    return true;
  };
  {
    std::lock_guard<std::mutex> Lock(EngineMutex);
    if (Exists())
      return false;
  }
  // Built outside EngineMutex: the first open of a benchmark builds its
  // dataset without blocking calls on other sessions.
  std::shared_ptr<Session> S = buildSession(Spec, Err);
  if (!S)
    return false;
  std::lock_guard<std::mutex> Lock(EngineMutex);
  if (Exists()) // opened concurrently while this one was built
    return false;
  if (!Opts.StateDir.empty()) {
    // The header, written once and atomically: a log either has it or
    // does not exist.  It replaces any log a skipped restore left.
    ByteWriter W;
    W.writeU32(SessionLogMagic);
    W.writeU32(SessionLogVersion);
    W.writeString(Id);
    writeSpec(W, Spec);
    W.writeChecksum();
    ByteWriter File;
    File.writeRaw(hexLine(W) + "\n");
    FailOutcome F = ALIC_FAILPOINT("session.header");
    Status St = F.Fire ? Status::failure("write " + logPath(Id) +
                                             " (injected)",
                                         F.Errno)
                       : File.writeFileDurable(logPath(Id));
    if (!St.ok()) {
      Err = "session log not created: " + describe(St);
      return false;
    }
  }
  Sessions.emplace(Id, std::move(S));
  return true;
}

bool ServeEngine::suggest(const std::string &Id, Suggestion &Out,
                          std::string &Err) {
  LockedSession S = lockSession(Id, Err);
  if (!S)
    return false;
  Out = S->Learner->suggest();
  return true;
}

bool ServeEngine::observe(const std::string &Id, uint64_t Ticket,
                          const std::vector<double> &Costs,
                          std::string &Err) {
  LockedSession S = lockSession(Id, Err);
  if (!S)
    return false;
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
  // Durable before absorbed: an acknowledged observe survives a crash,
  // and a refused one leaves the live session as it was.
  if (!Opts.StateDir.empty()) {
    Status St = appendRecord(logPath(Id), Ticket, Costs);
    if (!St.ok()) {
      Err = "observe not recorded: " + describe(St);
      return false;
    }
  }
  if (!S->Learner->observe(Ticket, Costs))
    alic_unreachable("the learner rejected a validated observe");
  ++S->Observes;
  for (double C : Costs)
    S->TotalCostSeconds += C;
  return true;
}

bool ServeEngine::evaluate(const std::string &Id, double &Rmse,
                           std::string &Err) {
  LockedSession S = lockSession(Id, Err);
  if (!S)
    return false;
  if (!S->Learner->seeded()) {
    Err = "session has no model yet (still exploring)";
    return false;
  }
  const Dataset &D = S->Entry->Data;
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
  LockedSession S = lockSession(Id, Err);
  if (!S)
    return false;
  Out.Stats = S->Learner->stats();
  Out.TotalCostSeconds = S->TotalCostSeconds;
  Out.Observes = S->Observes;
  Out.Done = S->Learner->done();
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
  // Under EngineMutex throughout, so no open of the same id can write its
  // log between the erase and the remove below.
  std::lock_guard<std::mutex> Lock(EngineMutex);
  auto It = Sessions.find(Id);
  if (It == Sessions.end())
    return false;
  {
    // Any in-flight call that resolved the session before it leaves the
    // table either finishes first (its record, if any, lands before the
    // remove) or sees Closed and bails; the shared_ptr it holds keeps the
    // Session alive either way.
    std::lock_guard<std::mutex> SessionLock(It->second->M);
    It->second->Closed = true;
  }
  Sessions.erase(It);
  if (!Opts.StateDir.empty()) {
    std::error_code Ec;
    std::filesystem::remove(logPath(Id), Ec);
  }
  return true;
}

size_t ServeEngine::restoreSessions(size_t *Skipped) {
  size_t Bad = 0, Restored = 0;
  std::vector<std::string> Paths;
  if (!Opts.StateDir.empty()) {
    std::error_code Ec;
    std::filesystem::directory_iterator Dir(Opts.StateDir, Ec);
    if (!Ec)
      for (const auto &Entry : Dir) {
        std::string Name = Entry.path().filename().string();
        if (Name.rfind("sess-", 0) == 0 && Name.size() > 10 &&
            Name.substr(Name.size() - 5) == ".alsv")
          Paths.push_back(Opts.StateDir + "/" + Name);
      }
  }
  // Deterministic restore order (directory iteration order is not).
  std::sort(Paths.begin(), Paths.end());
  for (const std::string &Path : Paths)
    ++(restoreSession(Path) ? Restored : Bad);
  if (Skipped)
    *Skipped = Bad;
  return Restored;
}

bool ServeEngine::restoreSession(const std::string &Path) {
  if (ALIC_FAILPOINT("session.restore").Fire)
    return false; // injected unreadable log
  // Line 1 must be the header, naming the id this file is named after
  // (observes append to that name); every later line is a record.  A
  // record repeating its predecessor's ticket replaces it: the earlier
  // one reached the disk although its observe was refused.
  std::string Id;
  SessionSpec Spec;
  bool First = true, Header = false;
  std::vector<std::pair<uint64_t, std::vector<double>>> Records;
  LogScanStats Scan;
  Status St = scanLogLines(Path, Scan, [&](const std::string &Line) {
    ByteReader R({});
    if (First) {
      First = false;
      uint32_t Magic = 0, Version = 0;
      Header = readHexLine(Line, R) && R.readU32(Magic) &&
               R.readU32(Version) && R.readString(Id) &&
               Magic == SessionLogMagic && Version == SessionLogVersion &&
               validId(Id) && readSpec(R, Spec) && R.atEnd() &&
               Path == logPath(Id);
      return Header;
    }
    uint64_t Ticket = 0;
    std::vector<double> Costs;
    if (!Header || !readHexLine(Line, R) || !R.readU64(Ticket) ||
        !R.readDoubles(Costs) || !R.atEnd())
      return false;
    if (!Records.empty() && Records.back().first == Ticket)
      Records.back().second = std::move(Costs);
    else
      Records.emplace_back(Ticket, std::move(Costs));
    return true;
  });
  if (!St.ok() || !Header)
    return false;

  {
    std::lock_guard<std::mutex> Lock(EngineMutex);
    if (Sessions.count(Id))
      return false; // restored already
  }
  std::string Err;
  std::shared_ptr<Session> S = buildSession(Spec, Err);
  if (!S)
    return false; // an unknown benchmark
  // Replay: state is a pure function of (spec, cost sequence), so
  // driving the recorded costs through the deterministic loop lands
  // exactly where the previous process stood.  Each record must answer
  // the learner's outstanding ticket (a done learner's is 0, never
  // recorded); any gap means a lost record.
  for (const auto &[Ticket, Costs] : Records) {
    if (S->Learner->suggest().Ticket != Ticket ||
        !S->Learner->observe(Ticket, Costs))
      return false;
    ++S->Observes;
    for (double C : Costs)
      S->TotalCostSeconds += C;
  }
  std::lock_guard<std::mutex> Lock(EngineMutex);
  return Sessions.emplace(Id, std::move(S)).second;
}

size_t ServeEngine::sessionCount() const {
  std::lock_guard<std::mutex> Lock(EngineMutex);
  return Sessions.size();
}
