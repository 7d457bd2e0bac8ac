//===- exp/Campaign.cpp ---------------------------------------*- C++ -*-===//

#include "exp/Campaign.h"

#include "exp/Dataset.h"
#include "exp/ShardLease.h"
#include "measure/Profiler.h"
#include "spapt/Suite.h"
#include "stats/Metrics.h"
#include "stats/OnlineStats.h"
#include "support/Error.h"
#include "support/FailPoint.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Scheduler.h"
#include "support/Serialize.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unistd.h>
#include <unordered_map>
#include <unordered_set>

using namespace alic;

//===----------------------------------------------------------------------===//
// Keys, fingerprints
//===----------------------------------------------------------------------===//

std::vector<SamplingPlan> alic::defaultCampaignPlans(const ExperimentScale &S) {
  return {SamplingPlan::fixed(35), SamplingPlan::fixed(1),
          SamplingPlan::sequential(S.ObservationCap)};
}

std::string alic::defaultCampaignStateDir(const std::string &ScaleName) {
  return "alic-campaign-" + ScaleName;
}

std::vector<std::string> CampaignSpec::benchmarkList() const {
  return Benchmarks.empty() ? spaptBenchmarkNames() : Benchmarks;
}

std::vector<QueryPolicyConfig> CampaignSpec::policyList() const {
  return Policies.empty() ? std::vector<QueryPolicyConfig>{QueryPolicyConfig()}
                          : Policies;
}

bool CampaignSpec::defaultPolicyAxis() const {
  std::vector<QueryPolicyConfig> List = policyList();
  return List.size() == 1 && List[0].Kind == QueryPolicyKind::Always;
}

unsigned CampaignSpec::repetitions() const {
  unsigned Reps = Repetitions ? Repetitions : Scale.Repetitions;
  return Reps ? Reps : 1;
}

namespace {

/// Hashes every parameter a cell's result depends on besides the cell
/// coordinates themselves, so one ledger can host many scales.
uint64_t scaleFingerprint(const CampaignSpec &Spec) {
  const ExperimentScale &S = Spec.Scale;
  uint64_t FractionBits;
  std::memcpy(&FractionBits, &S.TrainFraction, sizeof(FractionBits));
  return hashCombine(
      {uint64_t(S.NumConfigs), FractionBits, uint64_t(S.MeanObservations),
       uint64_t(S.NumInitial), uint64_t(S.InitObservations),
       uint64_t(S.MaxTrainingExamples), uint64_t(S.CandidatesPerIteration),
       uint64_t(S.ReferenceSetSize), uint64_t(S.Particles),
       uint64_t(S.EvalEvery), uint64_t(S.TestSubset),
       uint64_t(S.ObservationCap), Spec.DatasetSeed, Spec.BaseRunSeed});
}

} // namespace

std::string CampaignCell::key(const CampaignSpec &Spec) const {
  std::string Fp =
      formatString("fp=%016llx", (unsigned long long)scaleFingerprint(Spec));
  if (CellKind == Kind::Noise)
    return "noise|" + Benchmark + "|" + Fp;
  // Always cells keep the pre-policy key so ledgers written before the
  // policy axis stay valid and policy sweeps share their baseline cells.
  std::string PolicySegment = Policy.Kind == QueryPolicyKind::Always
                                  ? ""
                                  : "q=" + queryPolicyToken(Policy) + "|";
  return "run|" + Benchmark + "|" + modelToken(Model) + "|" +
         scorerToken(Scorer) + "|b" + std::to_string(BatchSize) + "|" +
         planToken(Plan) + "|" + PolicySegment + "r" + std::to_string(Rep) +
         "|" + Fp;
}

const RunResult *ComboResult::planResult(const CampaignSpec &Spec,
                                         const SamplingPlan &Plan) const {
  std::string Token = planToken(Plan);
  for (size_t I = 0; I != Spec.Plans.size() && I != PlanResults.size(); ++I)
    if (planToken(Spec.Plans[I]) == Token)
      return &PlanResults[I];
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Cell expansion
//===----------------------------------------------------------------------===//

std::vector<CampaignCell> alic::expandCells(const CampaignSpec &Spec) {
  std::vector<CampaignCell> Cells;
  unsigned Reps = Spec.repetitions();
  std::vector<QueryPolicyConfig> Policies = Spec.policyList();
  for (const std::string &Benchmark : Spec.benchmarkList()) {
    for (ModelKind Model : Spec.Models)
      for (ScorerKind Scorer : Spec.Scorers)
        for (unsigned Batch : Spec.BatchSizes)
          for (const SamplingPlan &Plan : Spec.Plans)
            for (const QueryPolicyConfig &Policy : Policies)
              for (unsigned Rep = 0; Rep != Reps; ++Rep) {
                CampaignCell C;
                C.CellKind = CampaignCell::Kind::Run;
                C.Benchmark = Benchmark;
                C.Model = Model;
                C.Scorer = Scorer;
                C.BatchSize = Batch;
                C.Plan = Plan;
                C.Policy = Policy;
                C.Rep = Rep;
                Cells.push_back(std::move(C));
              }
  }
  if (Spec.NoiseCells)
    for (const std::string &Benchmark : Spec.benchmarkList()) {
      CampaignCell C;
      C.CellKind = CampaignCell::Kind::Noise;
      C.Benchmark = Benchmark;
      Cells.push_back(std::move(C));
    }
  return Cells;
}

//===----------------------------------------------------------------------===//
// Ledger serialization (JSON machinery lives in support/Json)
//===----------------------------------------------------------------------===//

namespace {

std::string cellLine(const std::string &Key, CampaignCell::Kind Kind,
                     const CellResult &Result) {
  std::string Line = "{\"cell\":\"" + Key + "\"";
  if (Kind == CampaignCell::Kind::Noise) {
    Line += ",\"noise\":[";
    for (size_t I = 0; I != Result.NoiseStats.size(); ++I) {
      if (I)
        Line += ",";
      Line += formatJsonDouble(Result.NoiseStats[I]);
    }
    Line += "]}";
    return Line;
  }
  const RunResult &R = Result.Run;
  Line += formatString(",\"iterations\":%zu,\"distinct\":%zu,"
                       "\"revisits\":%zu,\"observations\":%zu",
                       R.Stats.Iterations, R.Stats.DistinctExamples,
                       R.Stats.Revisits, R.Stats.Observations);
  // Only policy cells skip; omitting the zero keeps pre-policy ledger
  // lines (and Always cells' fresh lines) byte-identical.
  if (R.Stats.Skips)
    Line += formatString(",\"skips\":%zu", R.Stats.Skips);
  Line += ",\"final_rmse\":" + formatJsonDouble(R.FinalRmse);
  Line += ",\"total_cost_seconds\":" + formatJsonDouble(R.TotalCostSeconds);
  Line += ",\"curve\":[";
  for (size_t I = 0; I != R.Curve.size(); ++I) {
    const CurvePoint &Point = R.Curve[I];
    if (I)
      Line += ",";
    Line += formatString("[%zu,", Point.Iteration);
    Line += formatJsonDouble(Point.CostSeconds) + ",";
    Line += formatJsonDouble(Point.Rmse) + "]";
  }
  Line += "]}";
  return Line;
}

bool parseCellLine(const std::string &Line, std::string &Key,
                   CellResult &Result) {
  JsonValue Root;
  if (!parseJson(Line.c_str(), Root) || Root.K != JsonValue::Kind::Object)
    return false;
  const JsonValue *Cell = Root.field("cell");
  if (!Cell || Cell->K != JsonValue::Kind::String)
    return false;
  Key = Cell->Str;

  if (const JsonValue *Noise = Root.field("noise")) {
    if (Noise->K != JsonValue::Kind::Array || Noise->Items.size() != 9)
      return false;
    Result.NoiseStats.clear();
    for (const JsonValue &Item : Noise->Items) {
      if (Item.K != JsonValue::Kind::Number)
        return false;
      Result.NoiseStats.push_back(Item.Number);
    }
    return true;
  }

  // Counts come from disk: a negative, fractional or out-of-range one
  // makes the line garbage (its cell reruns) instead of an undefined cast.
  auto count = [](double Value, size_t &Out) {
    uint64_t Count = 0;
    if (!jsonCount(Value, std::numeric_limits<size_t>::max(), Count))
      return false;
    Out = size_t(Count);
    return true;
  };
  auto countField = [&](const char *Name, size_t &Out) {
    double Value;
    return jsonNumberField(Root, Name, Value) && count(Value, Out);
  };
  RunResult &R = Result.Run;
  R.Stats.Skips = 0; // optional: absent in pre-policy ledgers and 0-skip cells
  if (!countField("iterations", R.Stats.Iterations) ||
      !countField("distinct", R.Stats.DistinctExamples) ||
      !countField("revisits", R.Stats.Revisits) ||
      !countField("observations", R.Stats.Observations) ||
      (Root.field("skips") && !countField("skips", R.Stats.Skips)) ||
      !jsonNumberField(Root, "final_rmse", R.FinalRmse) ||
      !jsonNumberField(Root, "total_cost_seconds", R.TotalCostSeconds))
    return false;
  const JsonValue *Curve = Root.field("curve");
  if (!Curve || Curve->K != JsonValue::Kind::Array || Curve->Items.empty())
    return false;
  R.Curve.clear();
  for (const JsonValue &Item : Curve->Items) {
    if (Item.K != JsonValue::Kind::Array || Item.Items.size() != 3)
      return false;
    for (const JsonValue &Coord : Item.Items)
      if (Coord.K != JsonValue::Kind::Number)
        return false;
    CurvePoint Point{0, Item.Items[1].Number, Item.Items[2].Number};
    if (!count(Item.Items[0].Number, Point.Iteration))
      return false;
    R.Curve.push_back(Point);
  }
  return true;
}

/// The ledger's line scanner: scanLogLines over \p Path, calling
/// \p OnCell(Line, Key, Result) for every complete line that parses as
/// a cell; a torn tail and unparsable lines are counted in \p Stats.
Status scanLedger(const std::string &Path, LogScanStats &Stats,
                  const std::function<void(const std::string &,
                                           const std::string &, CellResult &)>
                      &OnCell) {
  return scanLogLines(Path, Stats, [&](const std::string &Line) {
    std::string Key;
    CellResult Result;
    if (!parseCellLine(Line, Key, Result))
      return false;
    OnCell(Line, Key, Result);
    return true;
  });
}

/// Reads the ledger's cells; a missing or unreadable ledger is empty
/// (its cells simply rerun).
std::unordered_map<std::string, CellResult>
loadLedger(const std::string &Path) {
  std::unordered_map<std::string, CellResult> Ledger;
  LogScanStats Skipped;
  (void)scanLedger(Path, Skipped,
                   [&](const std::string &, const std::string &Key,
                       CellResult &Result) {
                     // Later lines win (idempotent rewrites).
                     Ledger[Key] = std::move(Result);
                   });
  return Ledger;
}

/// The keys of every cell recorded in any of \p Paths: the done-set.
std::unordered_set<std::string>
ledgerKeys(const std::vector<std::string> &Paths) {
  std::unordered_set<std::string> Done;
  LogScanStats Skipped;
  for (const std::string &Path : Paths)
    (void)scanLedger(Path, Skipped,
                     [&](const std::string &, const std::string &Key,
                         CellResult &) { Done.insert(Key); });
  return Done;
}

//===----------------------------------------------------------------------===//
// Cell execution
//===----------------------------------------------------------------------===//

CellResult computeNoiseCell(const CampaignSpec &Spec,
                            const std::string &Benchmark) {
  auto B = createSpaptBenchmark(Benchmark);
  const ExperimentScale &S = Spec.Scale;
  // The Table 2 measurement: per-configuration runtime variance and the
  // paper's Section 4.3 CI/mean validation statistic for 35- and 5-sample
  // plans, summarized as min/mean/max across sampled configurations.
  size_t NumConfigs = std::min<size_t>(S.NumConfigs / 4, 600);
  Rng R(hashCombine({Spec.DatasetSeed, 0x7ab1e2ull}));
  std::vector<Config> Configs = B->space().sampleDistinct(R, NumConfigs);
  Profiler Prof(*B, 0x5eed);

  OnlineStats Var, Ci35, Ci5;
  for (const Config &C : Configs) {
    OnlineStats Runs, Five;
    std::vector<double> Obs = Prof.measure(C, 35);
    for (size_t I = 0; I != Obs.size(); ++I) {
      Runs.add(Obs[I]);
      // Streams are counter-based, so the first five observations are
      // exactly what a fresh 5-sample plan would draw.
      if (I < 5)
        Five.add(Obs[I]);
    }
    Var.add(Runs.variance());
    Ci35.add(Runs.ciOverMean());
    Ci5.add(Five.ciOverMean());
  }
  CellResult Result;
  Result.NoiseStats = {Var.min(),  Var.mean(),  Var.max(),
                       Ci35.min(), Ci35.mean(), Ci35.max(),
                       Ci5.min(),  Ci5.mean(),  Ci5.max()};
  return Result;
}

CellResult computeRunCell(const CampaignSpec &Spec, const CampaignCell &Cell,
                          const Dataset &D, Scheduler *Workers) {
  auto B = createSpaptBenchmark(Cell.Benchmark);
  RunOptions Options;
  Options.Model = Cell.Model;
  Options.Learner.Scorer = Cell.Scorer;
  Options.Learner.BatchSize = Cell.BatchSize;
  Options.Learner.Query = Cell.Policy;
  // Nested parallelism: this cell already runs as a scheduler task, and
  // its model forks particle and scoring shards back onto the same pool
  // — TaskGroup::wait helps instead of blocking, so idle workers steal
  // the inner shards at the campaign tail.  Results are bit-identical
  // with or without Workers.
  Options.Workers = Workers;
  uint64_t Seed = hashCombine({Spec.BaseRunSeed, uint64_t(Cell.Rep)});
  CellResult Result;
  Result.Run = runLearning(*B, D, Cell.Plan, Spec.Scale, Seed, Options);
  return Result;
}

//===----------------------------------------------------------------------===//
// Orchestration pieces
//===----------------------------------------------------------------------===//

/// Every worker ledger under \p StateDir — the canonical cells.jsonl plus
/// any per-worker cells.<worker>.jsonl — sorted by name so reads are
/// deterministic.
std::vector<std::string> shardLedgerPaths(const std::string &StateDir) {
  std::vector<std::string> Paths;
  std::error_code Ec;
  for (const auto &Entry :
       std::filesystem::directory_iterator(StateDir, Ec)) {
    std::string Name = Entry.path().filename().string();
    if (Name.rfind("cells", 0) == 0 && Name.size() > 6 &&
        Name.compare(Name.size() - 6, 6, ".jsonl") == 0)
      Paths.push_back(StateDir + "/" + Name);
  }
  std::sort(Paths.begin(), Paths.end());
  return Paths;
}

/// Creates Options.StateDir, fsyncing its parent on first creation so
/// the new directory entry itself survives a crash (the
/// writeFileDurable discipline, applied to the campaign's root).
Status prepareStateDir(const CampaignOptions &Options) {
  std::error_code Ec;
  bool Created = std::filesystem::create_directories(Options.StateDir, Ec);
  if (Ec)
    return Status::failure("create state dir " + Options.StateDir,
                           Ec.value());
  if (Created)
    (void)syncParentDir(Options.StateDir); // best-effort (EINVAL-tolerant)
  return Status::success();
}

/// Memoizes datasets for any of \p Benchmarks not yet in \p Datasets
/// (the blob cache makes this a deserialize everywhere after the first
/// build on the machine).
void ensureDatasets(const CampaignSpec &Spec, const CampaignOptions &Options,
                    Scheduler *Pool,
                    const std::vector<std::string> &Benchmarks,
                    std::unordered_map<std::string, Dataset> &Datasets) {
  std::vector<std::string> Needed;
  for (const std::string &Name : Benchmarks)
    if (!Datasets.count(Name) &&
        std::find(Needed.begin(), Needed.end(), Name) == Needed.end())
      Needed.push_back(Name);
  if (Needed.empty())
    return;
  std::mutex DatasetMutex;
  const ExperimentScale &S = Spec.Scale;
  shardedFor(Pool, Needed.size(), 1, [&](size_t I, size_t, size_t) {
    const std::string &Name = Needed[I];
    auto B = createSpaptBenchmark(Name);
    Dataset D = loadOrBuildDataset(*B, S.NumConfigs, S.TrainFraction,
                                   S.MeanObservations, Spec.DatasetSeed,
                                   Options.datasetCacheDir());
    std::lock_guard<std::mutex> Lock(DatasetMutex);
    Datasets.emplace(Name, std::move(D));
  });
}

/// One cell, either kind.
CellResult computeCell(const CampaignSpec &Spec, const CampaignCell &Cell,
                       const std::unordered_map<std::string, Dataset> &Datasets,
                       Scheduler *CellWorkers) {
  return Cell.CellKind == CampaignCell::Kind::Noise
             ? computeNoiseCell(Spec, Cell.Benchmark)
             : computeRunCell(Spec, Cell, Datasets.at(Cell.Benchmark),
                              CellWorkers);
}

/// How often a lease worker that finds every missing range held rescans.
constexpr std::chrono::milliseconds LeaseRescanInterval(500);

/// How one invocation obtains ranges of the canonical unique-cell list:
/// the only thing the default run and `--lease-claim` do differently.
///  * The default run offers the whole list once; its done-set is the
///    canonical ledger.
///  * Lease claiming claims splitRangesByCells ranges through
///    exp/ShardLease, cycling from a worker-id-derived offset, rescans the
///    union of worker ledgers (its done-set) after every claim, and
///    repeats until nothing is missing.  A claim that fails with an error
///    quarantines the range's missing cells and retires the range: nobody
///    holds that lock, so waiting for it would never end.
class RangePolicy {
public:
  RangePolicy(const CampaignOptions &Options,
              const std::vector<std::string> &Keys,
              std::vector<std::string> &Quarantined)
      : Options(Options), Keys(Keys), Quarantined(Quarantined) {
    if (Options.LeaseClaim) {
      Ranges = splitRangesByCells(Keys.size(), Options.LeaseRangeCells);
      Leases.emplace(Options.leaseDir());
      // Start the cyclic claim scan at a worker-id-derived offset so K
      // workers spread across the range list instead of all contending
      // for range 0.
      uint64_t IdHash = 0;
      for (char C : Options.workerId())
        IdHash = IdHash * 131 + uint8_t(C);
      ScanStart = Ranges.empty() ? 0 : size_t(IdHash % Ranges.size());
    } else {
      Ranges = {{0, 0, Keys.size()}};
    }
    Retired.assign(Ranges.size(), 0);
    Done = loadDone();
  }

  /// Indices of spec cells missing from the done-set, in canonical order.
  std::vector<size_t> missing() const { return missingIn(0, Keys.size()); }
  /// Creates what claiming needs on disk (the lease directory).
  Status prepare() const { return Leases ? Leases->init() : Status::success(); }

  /// Obtains the next range to run: its missing cells in canonical order,
  /// leased when claiming.  False when none is left to run; allDone() then
  /// tells whether nothing is missing.  With \p MayRun false (the
  /// MaxCells cap is spent) it only checks completion.
  bool next(bool MayRun, std::vector<size_t> &Missing) {
    while (true) {
      bool AnyMissing = false, AnyHeld = false;
      for (size_t Off = 0; Off != Ranges.size(); ++Off) {
        size_t P = (ScanStart + Off) % Ranges.size();
        Missing = missingIn(Ranges[P].Begin, Ranges[P].End);
        if (Missing.empty())
          continue;
        if (Retired[P] || !MayRun) {
          AnyMissing = true;
          continue;
        }
        if (Leases) {
          ShardLease::Claim Claim = Leases->tryClaim(Ranges[P].Index, Lease);
          if (Claim == ShardLease::Claim::Held) {
            AnyMissing = AnyHeld = true;
            continue;
          }
          if (Claim == ShardLease::Claim::Error) {
            // Nobody holds this lock, so rescanning would wait forever:
            // give the range up for this worker; a re-run retries its
            // quarantined cells.
            AnyMissing = true;
            Retired[P] = 1;
            for (size_t I : Missing) {
              Quarantined.push_back(Keys[I]);
              std::fprintf(stderr,
                           "  campaign[%s] QUARANTINED %s: lease claim "
                           "failed\n",
                           Options.workerId().c_str(), Keys[I].c_str());
            }
            continue;
          }
          // Rescan under the lock: a previous holder appended and fsynced
          // every cell it ran before it released, so while exclusion holds
          // no live worker reruns a finished cell.
          Done = loadDone();
          Missing = missingIn(Ranges[P].Begin, Ranges[P].End);
          if (Missing.empty()) {
            Lease.release();
            continue;
          }
          if (!Options.Quiet)
            std::fprintf(stderr,
                         "  campaign[%s] leased range %zu (%zu missing "
                         "cell(s))\n",
                         Options.workerId().c_str(), Ranges[P].Index,
                         Missing.size());
        }
        Current = P;
        Retired[P] = !Leases; // the default run's range is offered once
        return true;
      }
      AllDone = !AnyMissing;
      if (!AnyHeld)
        return false;
      // Every missing range is held by another worker: wait and rescan.
      // A dead holder's lock is gone already; the rescan claims its range.
      std::this_thread::sleep_for(LeaseRescanInterval);
      Done = loadDone();
    }
  }

  /// Records a durable append.
  void markDone(const std::string &Key) { Done.insert(Key); }
  /// Ends the range next() returned last.  \p Failed retires it for this
  /// worker: a re-launch, or another lease worker, retries its
  /// quarantined cells.
  void finish(bool Failed) {
    Lease.release();
    if (Failed)
      Retired[Current] = 1;
  }
  /// True once next() found no spec cell missing.
  bool allDone() const { return AllDone; }

private:
  std::unordered_set<std::string> loadDone() const {
    return ledgerKeys(
        Options.LeaseClaim
            ? shardLedgerPaths(Options.StateDir)
            : std::vector<std::string>{Options.canonicalLedgerPath()});
  }
  std::vector<size_t> missingIn(size_t Begin, size_t End) const {
    std::vector<size_t> Missing;
    for (size_t I = Begin; I != End; ++I)
      if (!Done.count(Keys[I]))
        Missing.push_back(I);
    return Missing;
  }

  const CampaignOptions &Options;
  const std::vector<std::string> &Keys;
  std::vector<std::string> &Quarantined; ///< keys of unclaimable cells
  std::vector<ShardRange> Ranges;
  std::vector<char> Retired; ///< per range: never offer it again
  std::optional<ShardLease> Leases;
  RangeLease Lease; ///< the current range's lease
  std::unordered_set<std::string> Done;
  size_t ScanStart = 0, Current = 0;
  bool AllDone = false;
};

} // namespace

std::string CampaignOptions::workerId() const {
  return WorkerId.empty() ? "w" + std::to_string(int(::getpid())) : WorkerId;
}

//===----------------------------------------------------------------------===//
// Orchestration: one loop over ranges of the canonical cell list
//===----------------------------------------------------------------------===//

CampaignProgress alic::runCampaignCells(const CampaignSpec &Spec,
                                        const CampaignOptions &Options) {
  const std::string LedgerPath = Options.ledgerPath();
  const std::string Tag =
      Options.LeaseClaim ? "[" + Options.workerId() + "]" : "";

  // The canonical unique-cell list (unique keys, so a pathological spec
  // with duplicates still completes).
  std::vector<CampaignCell> Cells = expandCells(Spec);
  std::vector<const CampaignCell *> Unique;
  std::vector<std::string> Keys;
  std::unordered_set<std::string> Seen;
  for (const CampaignCell &Cell : Cells) {
    std::string Key = Cell.key(Spec);
    if (Seen.insert(Key).second) {
      Unique.push_back(&Cell);
      Keys.push_back(std::move(Key));
    }
  }
  CampaignProgress Progress;
  RangePolicy Policy(Options, Keys, Progress.QuarantinedCells);
  Progress.TotalCells = Unique.size();
  std::vector<size_t> Missing = Policy.missing();
  Progress.AlreadyDone = Progress.TotalCells - Missing.size();
  if (Missing.empty()) {
    Progress.Complete = true;
    return Progress;
  }

  // Something is missing: only now touch the disk.  A state dir, lease
  // dir or ledger that cannot be opened quarantines every missing cell —
  // nothing was lost, a re-launch retries exactly them.
  Status Opened = prepareStateDir(Options);
  if (Opened.ok())
    Opened = Policy.prepare();
  std::FILE *Out = nullptr;
  if (Opened.ok() && !(Out = openAppendLog(LedgerPath)))
    Opened = Status::failure("cannot open ledger " + LedgerPath +
                             " for append: " + std::strerror(errno));
  if (!Opened.ok()) {
    std::fprintf(stderr, "campaign%s: %s — quarantining all missing cells\n",
                 Tag.c_str(), Opened.message().c_str());
    for (size_t I : Missing)
      Progress.QuarantinedCells.push_back(Keys[I]);
    return Progress;
  }

  std::unique_ptr<Scheduler> Pool;
  if (Options.Threads) {
    Scheduler::Options SchedOptions;
    SchedOptions.Threads = Options.Threads;
    if (Options.StealSeed)
      SchedOptions.StealSeed = Options.StealSeed;
    Pool = std::make_unique<Scheduler>(SchedOptions);
    Progress.WorkersUsed = Pool->numThreads();
  }

  std::unordered_map<std::string, Dataset> Datasets;
  std::mutex WriteMutex;
  size_t Attempted = 0;
  bool NeedSeal = false; // a failed append may have left a torn remnant
  while (Policy.next(!Options.MaxCells || Attempted < Options.MaxCells,
                     Missing)) {
    if (Options.ShuffleSeed) {
      Rng Shuffler(Options.ShuffleSeed);
      Shuffler.shuffle(Missing);
    }
    if (Options.MaxCells)
      Missing.resize(std::min(Missing.size(), Options.MaxCells - Attempted));

    std::vector<std::string> Benchmarks;
    for (size_t I : Missing)
      if (Unique[I]->CellKind == CampaignCell::Kind::Run)
        Benchmarks.push_back(Unique[I]->Benchmark);
    ensureDatasets(Spec, Options, Pool.get(), Benchmarks, Datasets);

    bool RangeFailed = false;
    shardedFor(Pool.get(), Missing.size(), 1, [&](size_t I, size_t, size_t) {
      const CampaignCell &Cell = *Unique[Missing[I]];
      const std::string &Key = Keys[Missing[I]];
      std::string Line = cellLine(
          Key, Cell.CellKind, computeCell(Spec, Cell, Datasets, Pool.get()));

      std::lock_guard<std::mutex> Lock(WriteMutex);
      // One flushed + synced write per cell: a crash loses at most the
      // in-flight line, which the parser skips on resume.  An append that
      // still fails after the bounded retries quarantines this cell; the
      // rest of the range keeps running, and a re-launch retries exactly
      // the quarantined keys (they are simply missing from the ledger).
      Status St = appendLogLine(Out, LedgerPath, Line, NeedSeal,
                                "ledger.append", "ledger.sync");
      ++Attempted;
      std::string Count =
          Options.LeaseClaim
              ? formatString("+%zu", Attempted)
              : formatString("%zu/%zu", Progress.AlreadyDone + Attempted,
                             Progress.TotalCells);
      if (St.ok()) {
        ++Progress.NewlyRun;
        Policy.markDone(Key);
        if (!Options.Quiet)
          std::fprintf(stderr, "  campaign%s [%s] %s\n", Tag.c_str(),
                       Count.c_str(), Key.c_str());
      } else {
        RangeFailed = true;
        Progress.QuarantinedCells.push_back(Key);
        std::fprintf(stderr, "  campaign%s [%s] QUARANTINED %s: %s\n",
                     Tag.c_str(), Count.c_str(), Key.c_str(),
                     St.message().c_str());
      }
    });
    Policy.finish(RangeFailed);
  }
  std::fclose(Out);

  if (Pool) {
    SchedulerStats Stats = Pool->stats();
    Progress.TasksExecuted = Stats.Executed;
    Progress.Steals = Stats.Steals;
  }
  // Completion order varies across worker counts; report deterministically.
  std::sort(Progress.QuarantinedCells.begin(),
            Progress.QuarantinedCells.end());
  Progress.Complete = Policy.allDone() && Progress.QuarantinedCells.empty();
  return Progress;
}

bool alic::aggregateCampaign(const CampaignSpec &Spec,
                             const CampaignOptions &Options,
                             CampaignResult &Out) {
  Out = CampaignResult();
  std::unordered_map<std::string, CellResult> Ledger =
      loadLedger(Options.ledgerPath());

  // expandCells order is benchmark x model x scorer x batch x plan x
  // policy x rep, then noise.  A combo is one (benchmark, model, scorer,
  // batch, policy): within each block of Plans x Policies x Reps run
  // cells, the policy picks the combo and the plan its slot.
  size_t Plans = Spec.Plans.size(), Policies = Spec.policyList().size(),
         Reps = Spec.repetitions();
  std::vector<std::vector<RunResult>> Runs; // [combo * Plans + plan]
  std::vector<CampaignCell> Cells = expandCells(Spec);
  for (size_t I = 0; I != Cells.size(); ++I) {
    const CampaignCell &Cell = Cells[I];
    auto It = Ledger.find(Cell.key(Spec));
    if (It == Ledger.end())
      return false;
    if (Cell.CellKind == CampaignCell::Kind::Noise) {
      const std::vector<double> &S = It->second.NoiseStats;
      if (S.size() != 9)
        return false;
      Out.Noise.push_back(
          {Cell.Benchmark, S[0], S[1], S[2], S[3], S[4], S[5], S[6], S[7],
           S[8]});
      continue;
    }
    size_t Combo = I / (Plans * Policies * Reps) * Policies + I / Reps % Policies;
    if (Combo == Out.Combos.size()) {
      ComboResult C;
      C.Benchmark = Cell.Benchmark;
      C.Model = Cell.Model;
      C.Scorer = Cell.Scorer;
      C.BatchSize = Cell.BatchSize;
      C.Policy = Cell.Policy;
      Out.Combos.push_back(std::move(C));
      Runs.resize(Runs.size() + Plans);
    }
    Runs[Combo * Plans + I / (Policies * Reps) % Plans].push_back(
        It->second.Run);
  }

  // Table 1 semantics: the first fixed plan is the baseline, the first
  // sequential plan is "ours".
  int BaselineIdx = -1, OursIdx = -1;
  for (size_t P = 0; P != Plans; ++P) {
    if (Spec.Plans[P].PlanKind == SamplingPlan::Kind::Fixed && BaselineIdx < 0)
      BaselineIdx = int(P);
    if (Spec.Plans[P].PlanKind == SamplingPlan::Kind::Sequential &&
        OursIdx < 0)
      OursIdx = int(P);
  }
  std::vector<double> Speedups;
  for (size_t C = 0; C != Out.Combos.size(); ++C) {
    ComboResult &Combo = Out.Combos[C];
    for (size_t P = 0; P != Plans; ++P)
      Combo.PlanResults.push_back(averageRuns(Runs[C * Plans + P]));
    if (BaselineIdx >= 0 && OursIdx >= 0) {
      Combo.Speedup = compareCurves(Combo.PlanResults[BaselineIdx],
                                    Combo.PlanResults[OursIdx]);
      if (Combo.Speedup.Speedup > 0.0)
        Speedups.push_back(Combo.Speedup.Speedup);
    }
  }
  if (!Speedups.empty())
    Out.GeomeanSpeedup = geometricMean(Speedups);
  return true;
}

Status alic::mergeLedgers(const CampaignSpec &Spec,
                          const CampaignOptions &Options,
                          LedgerMergeReport &Report) {
  Report = LedgerMergeReport();
  std::vector<std::string> Inputs = shardLedgerPaths(Options.StateDir);
  if (Inputs.empty())
    return Status::failure("no cells*.jsonl ledgers under " + Options.StateDir,
                           ENOENT);

  // Key -> exact line bytes (newline excluded).  The comparison is on
  // bytes, not parsed values: equal parses with different bytes would
  // still break the byte-identical-aggregate contract downstream.
  std::unordered_map<std::string, std::string> LineByKey;
  std::vector<std::string> Conflicts;
  LogScanStats Skipped;
  for (const std::string &Path : Inputs) {
    ++Report.InputFiles;
    FailOutcome F = ALIC_FAILPOINT("merge.read");
    if (F.Fire)
      return Status::failure("read shard ledger " + Path + " (injected)",
                             F.Errno);
    Status St = scanLedger(
        Path, Skipped,
        [&](const std::string &Line, const std::string &Key, CellResult &) {
          ++Report.Lines;
          auto Inserted = LineByKey.emplace(Key, Line);
          if (Inserted.second)
            return;
          if (Inserted.first->second == Line)
            ++Report.DuplicateCells; // determinism made the rerun identical
          else
            Conflicts.push_back(Key); // same key, different bytes: corruption
        });
    if (!St.ok())
      return St;
  }
  Report.TornTails = Skipped.TornTails;       // sealed (dropped) tails
  Report.SkippedGarbage = Skipped.Garbage;    // sealed crash remnants
  Report.UniqueCells = LineByKey.size();


  std::sort(Conflicts.begin(), Conflicts.end());
  Conflicts.erase(std::unique(Conflicts.begin(), Conflicts.end()),
                  Conflicts.end());
  Report.ConflictKeys = std::move(Conflicts);
  if (!Report.ConflictKeys.empty())
    return Status::success(); // quarantined: report set, nothing written

  // Canonical order: the spec's cells exactly as one inline process would
  // have appended them (so the merged ledger is byte-identical to a
  // single-process run), then foreign cells — other scales or specs
  // sharing the state dir — in key order.
  std::string Merged;
  std::unordered_set<std::string> Emitted;
  for (const CampaignCell &Cell : expandCells(Spec)) {
    std::string Key = Cell.key(Spec);
    auto It = LineByKey.find(Key);
    if (It == LineByKey.end() || !Emitted.insert(Key).second)
      continue;
    Merged += It->second;
    Merged += '\n';
  }
  std::vector<std::string> Foreign;
  for (const auto &Entry : LineByKey)
    if (!Emitted.count(Entry.first))
      Foreign.push_back(Entry.first);
  std::sort(Foreign.begin(), Foreign.end());
  Report.ForeignCells = Foreign.size();
  for (const std::string &Key : Foreign) {
    Merged += LineByKey[Key];
    Merged += '\n';
  }

  FailOutcome F = ALIC_FAILPOINT("merge.append");
  if (F.Fire)
    return Status::failure("write merged ledger " +
                               Options.canonicalLedgerPath() + " (injected)",
                           F.Errno);
  // Atomic + durable publish: a crash mid-merge leaves the previous
  // canonical ledger (or its absence) intact, never a half-merged one.
  ByteWriter Writer;
  Writer.writeRaw(Merged);
  Status St = Writer.writeFileDurable(Options.canonicalLedgerPath());
  if (St.ok())
    Report.Wrote = true;
  return St;
}

bool alic::runCampaign(const CampaignSpec &Spec,
                       const CampaignOptions &Options, CampaignResult &Out) {
  CampaignProgress Progress = runCampaignCells(Spec, Options);
  if (!Progress.Complete)
    return false;
  if (!aggregateCampaign(Spec, Options, Out))
    fatalError("campaign ledger %s lost cells between run and aggregate",
               Options.ledgerPath().c_str());
  return true;
}

//===----------------------------------------------------------------------===//
// Canonical aggregate JSON
//===----------------------------------------------------------------------===//

namespace {

/// Evenly decimates a curve to at most ~33 points (always keeping the
/// final one) so the aggregate stays reviewable; renderers that need full
/// curves read CampaignResult directly.
void appendCurveJson(std::string &Json, const std::vector<CurvePoint> &Curve) {
  Json += "[";
  size_t Stride = std::max<size_t>(1, Curve.size() / 32);
  bool First = true;
  for (size_t I = 0; I < Curve.size(); I += Stride) {
    if (!First)
      Json += ",";
    First = false;
    Json += formatString("[%zu,", Curve[I].Iteration);
    Json += formatJsonDouble(Curve[I].CostSeconds) + ",";
    Json += formatJsonDouble(Curve[I].Rmse) + "]";
  }
  if (!Curve.empty() && (Curve.size() - 1) % Stride != 0) {
    Json += First ? "" : ",";
    Json += formatString("[%zu,", Curve.back().Iteration);
    Json += formatJsonDouble(Curve.back().CostSeconds) + ",";
    Json += formatJsonDouble(Curve.back().Rmse) + "]";
  }
  Json += "]";
}

} // namespace

std::string alic::campaignJson(const CampaignSpec &Spec,
                               const CampaignResult &Result) {
  std::string Json = "{\n";
  Json += "  \"schema\": \"alic-campaign-v1\",\n";
  Json += "  \"scale\": \"" + Spec.ScaleName + "\",\n";
  Json += formatString("  \"repetitions\": %u,\n", Spec.repetitions());
  Json += "  \"benchmarks\": [";
  std::vector<std::string> Names = Spec.benchmarkList();
  for (size_t I = 0; I != Names.size(); ++I)
    Json += (I ? ", \"" : "\"") + Names[I] + "\"";
  Json += "],\n";
  Json += formatString("  \"cells\": %zu,\n", expandCells(Spec).size());

  // Policy fields appear only when the spec sweeps a non-default policy
  // axis, so the default (Always-only) aggregate stays byte-identical to
  // aggregates written before the axis existed.
  bool EmitPolicy = !Spec.defaultPolicyAxis();

  Json += "  \"combos\": [\n";
  for (size_t C = 0; C != Result.Combos.size(); ++C) {
    const ComboResult &Combo = Result.Combos[C];
    Json += "    {\"benchmark\": \"" + Combo.Benchmark + "\", \"model\": \"" +
            modelToken(Combo.Model) + "\", \"scorer\": \"" +
            scorerToken(Combo.Scorer) + "\"";
    Json += formatString(", \"batch\": %u", Combo.BatchSize);
    if (EmitPolicy)
      Json += ", \"policy\": \"" + queryPolicyToken(Combo.Policy) + "\"";
    Json += ",\n";
    Json += "     \"plans\": [\n";
    for (size_t P = 0; P != Combo.PlanResults.size(); ++P) {
      const RunResult &Run = Combo.PlanResults[P];
      Json += "      {\"plan\": \"" + planToken(Spec.Plans[P]) + "\"";
      Json += ", \"final_rmse\": " + formatJsonDouble(Run.FinalRmse);
      Json +=
          ", \"total_cost_seconds\": " + formatJsonDouble(Run.TotalCostSeconds);
      Json += formatString(", \"iterations\": %zu, \"observations\": %zu",
                           Run.Stats.Iterations, Run.Stats.Observations);
      if (EmitPolicy)
        Json += formatString(", \"skips\": %zu", Run.Stats.Skips);
      Json += ",\n       \"curve\": ";
      appendCurveJson(Json, Run.Curve);
      Json += P + 1 == Combo.PlanResults.size() ? "}\n" : "},\n";
    }
    Json += "     ],\n";
    Json += "     \"lowest_common_rmse\": " +
            formatJsonDouble(Combo.Speedup.LowestCommonRmse);
    Json += ", \"baseline_cost_seconds\": " +
            formatJsonDouble(Combo.Speedup.BaselineCostSeconds);
    Json += ", \"ours_cost_seconds\": " +
            formatJsonDouble(Combo.Speedup.OursCostSeconds);
    Json += ", \"speedup\": " + formatJsonDouble(Combo.Speedup.Speedup);
    Json += C + 1 == Result.Combos.size() ? "}\n" : "},\n";
  }
  Json += "  ],\n";

  Json += "  \"noise\": [\n";
  for (size_t N = 0; N != Result.Noise.size(); ++N) {
    const NoiseSummary &Noise = Result.Noise[N];
    Json += "    {\"benchmark\": \"" + Noise.Benchmark + "\"";
    Json += ", \"var\": [" + formatJsonDouble(Noise.VarMin) + "," +
            formatJsonDouble(Noise.VarMean) + "," +
            formatJsonDouble(Noise.VarMax) + "]";
    Json += ", \"ci35\": [" + formatJsonDouble(Noise.Ci35Min) + "," +
            formatJsonDouble(Noise.Ci35Mean) + "," +
            formatJsonDouble(Noise.Ci35Max) + "]";
    Json += ", \"ci5\": [" + formatJsonDouble(Noise.Ci5Min) + "," +
            formatJsonDouble(Noise.Ci5Mean) + "," +
            formatJsonDouble(Noise.Ci5Max) + "]";
    Json += N + 1 == Result.Noise.size() ? "}\n" : "},\n";
  }
  Json += "  ],\n";

  Json += "  \"geomean_speedup\": " + formatJsonDouble(Result.GeomeanSpeedup);
  Json += "\n}\n";
  return Json;
}
