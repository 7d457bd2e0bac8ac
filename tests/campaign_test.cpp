//===- tests/campaign_test.cpp - campaign orchestrator tests --*- C++ -*-===//
//
// Pins the campaign determinism contract: the aggregate JSON is
// byte-identical at any worker thread count, under shuffled cell
// completion order, and across interrupt/resume boundaries; the dataset
// blob cache returns datasets bit-identical to a fresh buildDataset.
//
//===----------------------------------------------------------------------===//

#include "exp/Campaign.h"
#include "exp/Dataset.h"
#include "exp/ShardLease.h"
#include "spapt/Suite.h"
#include "support/FailPoint.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <thread>

using namespace alic;

namespace {

/// A seconds-cheap campaign that still crosses two benchmarks, two plans,
/// and two seeds (and keeps the noise cells).
CampaignSpec tinySpec() {
  CampaignSpec Spec;
  Spec.Benchmarks = {"mvt", "atax"};
  Spec.Scale = ExperimentScale::preset(ScaleKind::Smoke);
  Spec.Scale.NumConfigs = 300;
  Spec.Scale.MaxTrainingExamples = 20;
  Spec.Scale.CandidatesPerIteration = 15;
  Spec.Scale.ReferenceSetSize = 15;
  Spec.Scale.Particles = 40;
  Spec.Scale.EvalEvery = 5;
  Spec.Scale.TestSubset = 50;
  Spec.ScaleName = "tiny";
  Spec.Plans = {SamplingPlan::fixed(5), SamplingPlan::sequential(10)};
  Spec.Repetitions = 2;
  return Spec;
}

/// True when \p A and \p B hold the same rows, bit for bit.
bool sameRowBits(const FlatRows &A, const FlatRows &B) {
  return A.size() == B.size() && A.dim() == B.dim() &&
         (A.raw().empty() ||
          std::memcmp(A.raw().data(), B.raw().data(),
                      A.raw().size() * sizeof(double)) == 0);
}

/// Fresh per-test state directory under the gtest temp root.
std::string freshStateDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "alic_campaign_" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

std::string runToJson(const CampaignSpec &Spec, CampaignOptions Options) {
  Options.Quiet = true;
  CampaignResult Result;
  if (!runCampaign(Spec, Options, Result))
    ADD_FAILURE() << "campaign did not complete in " << Options.StateDir;
  return campaignJson(Spec, Result);
}

} // namespace

TEST(CampaignTest, ExpansionCoversCrossProductPlusNoise) {
  CampaignSpec Spec = tinySpec();
  Spec.Models = {ModelKind::DynaTree, ModelKind::Gp};
  Spec.Scorers = {ScorerKind::Alm, ScorerKind::Alc};
  std::vector<CampaignCell> Cells = expandCells(Spec);
  // 2 benchmarks x 2 models x 2 scorers x 1 batch x 2 plans x 2 reps + 2.
  EXPECT_EQ(Cells.size(), 2u * 2 * 2 * 1 * 2 * 2 + 2);
  // Keys are unique and scale-fingerprinted.
  std::set<std::string> Keys;
  for (const CampaignCell &Cell : Cells) {
    std::string Key = Cell.key(Spec);
    EXPECT_TRUE(Keys.insert(Key).second) << "duplicate key " << Key;
    EXPECT_NE(Key.find("fp="), std::string::npos);
  }
  CampaignSpec Other = Spec;
  Other.Scale.NumConfigs += 1;
  EXPECT_NE(Cells.front().key(Spec), Cells.front().key(Other));
}

TEST(CampaignTest, AggregateIdenticalAcrossWorkerCounts) {
  // Cells are nested-parallel by default (their inner shards fork onto
  // the campaign scheduler), so this also pins that nesting changes
  // nothing: inline, 1, 2, and 8 workers all produce the same bytes.
  CampaignSpec Spec = tinySpec();
  std::string Reference;
  for (unsigned Threads : {0u, 1u, 2u, 8u}) {
    CampaignOptions Options;
    Options.StateDir =
        freshStateDir("threads" + std::to_string(Threads));
    Options.Threads = Threads;
    std::string Json = runToJson(Spec, Options);
    if (Reference.empty())
      Reference = Json;
    EXPECT_EQ(Json, Reference) << "worker count " << Threads
                               << " changed the aggregate";
    std::filesystem::remove_all(Options.StateDir);
  }
  EXPECT_FALSE(Reference.empty());
}

TEST(CampaignTest, AggregateIdenticalUnderStealInterleavings) {
  // Forced steal interleavings (varied victim-selection seeds) must render
  // the same bytes as the inline reference.
  CampaignSpec Spec = tinySpec();
  CampaignOptions Inline;
  Inline.StateDir = freshStateDir("steal-ref");
  std::string Reference = runToJson(Spec, Inline);
  std::filesystem::remove_all(Inline.StateDir);

  for (uint64_t StealSeed : {0x5eedull, 0xfeedull}) {
    CampaignOptions Nested;
    Nested.StateDir = freshStateDir("steal" + std::to_string(StealSeed));
    Nested.Threads = 4;
    Nested.StealSeed = StealSeed;
    EXPECT_EQ(runToJson(Spec, Nested), Reference)
        << "steal seed " << StealSeed << " changed the aggregate";
    std::filesystem::remove_all(Nested.StateDir);
  }
}

TEST(CampaignTest, ResumeSkipsCompletedCellsAndSurvivesPartialLine) {
  CampaignSpec Spec = tinySpec();
  CampaignOptions Options;
  Options.StateDir = freshStateDir("ledger");
  Options.Quiet = true;
  CampaignProgress First = runCampaignCells(Spec, Options);
  EXPECT_TRUE(First.Complete);

  // Re-launching the same spec runs nothing.
  CampaignProgress Again = runCampaignCells(Spec, Options);
  EXPECT_TRUE(Again.Complete);
  EXPECT_EQ(Again.NewlyRun, 0u);
  EXPECT_EQ(Again.AlreadyDone, First.TotalCells);

  CampaignResult Reference;
  ASSERT_TRUE(aggregateCampaign(Spec, Options, Reference));

  // Simulate a crash mid-append: a partial trailing line (no newline)
  // must be ignored, not corrupt the ledger.
  {
    std::ofstream Ledger(Options.ledgerPath(), std::ios::app);
    Ledger << "{\"cell\":\"run|truncated-by-a-cra";
  }
  CampaignProgress AfterCrash = runCampaignCells(Spec, Options);
  EXPECT_TRUE(AfterCrash.Complete);
  EXPECT_EQ(AfterCrash.NewlyRun, 0u);
  CampaignResult Recovered;
  ASSERT_TRUE(aggregateCampaign(Spec, Options, Recovered));
  EXPECT_EQ(campaignJson(Spec, Recovered), campaignJson(Spec, Reference));
  std::filesystem::remove_all(Options.StateDir);
}

TEST(CampaignTest, AppendAfterCrashRemnantSealsPartialLine) {
  // A crash can die mid-append, leaving a partial line with NO newline.
  // The next run must not glue its first record onto the remnant (which
  // would lose both lines); it seals the remnant and proceeds.
  CampaignSpec Spec = tinySpec();
  CampaignOptions Options;
  Options.StateDir = freshStateDir("remnant");
  Options.Quiet = true;
  std::filesystem::create_directories(Options.StateDir);
  {
    std::ofstream Ledger(Options.ledgerPath());
    Ledger << "{\"cell\":\"run|died-mid-app"; // no trailing newline
  }
  std::string Json = runToJson(Spec, Options);

  CampaignOptions Clean;
  Clean.StateDir = freshStateDir("remnant_clean");
  EXPECT_EQ(Json, runToJson(Spec, Clean));
  std::filesystem::remove_all(Options.StateDir);
  std::filesystem::remove_all(Clean.StateDir);
}

TEST(CampaignTest, NoiseOnlySpecNeedsNoRunCells) {
  CampaignSpec Spec = tinySpec();
  Spec.Plans.clear();
  CampaignOptions Options;
  Options.StateDir = freshStateDir("noiseonly");
  Options.Quiet = true;
  CampaignResult Result;
  ASSERT_TRUE(runCampaign(Spec, Options, Result));
  EXPECT_TRUE(Result.Combos.empty());
  ASSERT_EQ(Result.Noise.size(), 2u);
  EXPECT_EQ(Result.Noise[0].Benchmark, "mvt");
  EXPECT_GT(Result.Noise[0].Ci35Mean, 0.0);
  EXPECT_GE(Result.Noise[0].VarMax, Result.Noise[0].VarMin);
  std::filesystem::remove_all(Options.StateDir);
}

TEST(CampaignTest, DatasetCacheReturnsBitIdenticalDatasets) {
  auto B = createSpaptBenchmark("mvt");
  std::string CacheDir = freshStateDir("dscache");

  Dataset Fresh = buildDataset(*B, 200, 0.6, 5, 11);
  Dataset Miss = loadOrBuildDataset(*B, 200, 0.6, 5, 11, CacheDir);
  Dataset Hit = loadOrBuildDataset(*B, 200, 0.6, 5, 11, CacheDir);

  for (const Dataset *D : {&Miss, &Hit}) {
    EXPECT_EQ(D->TrainPool.configs(), Fresh.TrainPool.configs());
    EXPECT_EQ(D->TestConfigs, Fresh.TestConfigs);
    EXPECT_TRUE(sameRowBits(D->TestFeatures, Fresh.TestFeatures));
    EXPECT_EQ(D->TestMeans, Fresh.TestMeans);
    ASSERT_EQ(D->Norm.numDims(), Fresh.Norm.numDims());
    for (size_t I = 0; I != Fresh.Norm.numDims(); ++I) {
      EXPECT_EQ(D->Norm.mean(I), Fresh.Norm.mean(I));
      EXPECT_EQ(D->Norm.stddev(I), Fresh.Norm.stddev(I));
    }
  }

  // A corrupt blob falls back to a rebuild instead of failing.
  for (const auto &Entry : std::filesystem::directory_iterator(CacheDir)) {
    std::ofstream Corrupt(Entry.path(), std::ios::trunc);
    Corrupt << "not a dataset blob";
  }
  Dataset Rebuilt = loadOrBuildDataset(*B, 200, 0.6, 5, 11, CacheDir);
  EXPECT_EQ(Rebuilt.TestMeans, Fresh.TestMeans);

  // So does a blob whose header validates but whose first length prefix
  // is absurd (must be rejected without attempting a giant allocation).
  for (const auto &Entry : std::filesystem::directory_iterator(CacheDir)) {
    std::fstream Blob(Entry.path(),
                      std::ios::in | std::ios::out | std::ios::binary);
    Blob.seekp(16); // past magic + version + key
    for (int I = 0; I != 8; ++I)
      Blob.put(char(0xff));
  }
  Dataset Rebuilt2 = loadOrBuildDataset(*B, 200, 0.6, 5, 11, CacheDir);
  EXPECT_EQ(Rebuilt2.TestMeans, Fresh.TestMeans);
  std::filesystem::remove_all(CacheDir);
}

TEST(CampaignTest, AggregateMatchesRunAveragedSemantics) {
  // The campaign's per-plan averaging must reproduce runAveraged exactly:
  // renderers built on campaign output keep their historical numbers.
  CampaignSpec Spec = tinySpec();
  Spec.Benchmarks = {"mvt"};
  Spec.NoiseCells = false;
  CampaignOptions Options;
  Options.StateDir = freshStateDir("semantics");
  Options.Quiet = true;
  CampaignResult Result;
  ASSERT_TRUE(runCampaign(Spec, Options, Result));
  ASSERT_EQ(Result.Combos.size(), 1u);
  ASSERT_EQ(Result.Combos[0].PlanResults.size(), 2u);

  auto B = createSpaptBenchmark("mvt");
  const ExperimentScale &S = Spec.Scale;
  Dataset D = buildDataset(*B, S.NumConfigs, S.TrainFraction,
                           S.MeanObservations, Spec.DatasetSeed);
  ExperimentScale TwoReps = S;
  TwoReps.Repetitions = Spec.repetitions();
  for (size_t P = 0; P != Spec.Plans.size(); ++P) {
    RunResult Direct =
        runAveraged(*B, D, Spec.Plans[P], TwoReps, Spec.BaseRunSeed);
    const RunResult &FromCampaign = Result.Combos[0].PlanResults[P];
    ASSERT_EQ(FromCampaign.Curve.size(), Direct.Curve.size());
    for (size_t I = 0; I != Direct.Curve.size(); ++I) {
      EXPECT_EQ(FromCampaign.Curve[I].Iteration, Direct.Curve[I].Iteration);
      EXPECT_EQ(FromCampaign.Curve[I].CostSeconds,
                Direct.Curve[I].CostSeconds);
      EXPECT_EQ(FromCampaign.Curve[I].Rmse, Direct.Curve[I].Rmse);
    }
    EXPECT_EQ(FromCampaign.FinalRmse, Direct.FinalRmse);
    EXPECT_EQ(FromCampaign.TotalCostSeconds, Direct.TotalCostSeconds);
  }
  std::filesystem::remove_all(Options.StateDir);
}

//===----------------------------------------------------------------------===//
// Query-policy axis
//===----------------------------------------------------------------------===//

TEST(CampaignTest, PolicyAxisKeysAreLegacyStableForAlways) {
  // Always cells must keep their pre-policy ledger keys (so old ledgers
  // stay valid and policy sweeps share the baseline cells); non-default
  // policies get a distinguishing "q=<token>|" segment.
  CampaignSpec Spec = tinySpec();
  std::vector<CampaignCell> Cells = expandCells(Spec);
  ASSERT_FALSE(Cells.empty());
  for (const CampaignCell &Cell : Cells)
    EXPECT_EQ(Cell.key(Spec).find("q="), std::string::npos);
  EXPECT_TRUE(Spec.defaultPolicyAxis());

  QueryPolicyConfig Cost;
  Cost.Kind = QueryPolicyKind::CostRange;
  Spec.Policies = {QueryPolicyConfig(), Cost};
  EXPECT_FALSE(Spec.defaultPolicyAxis());
  std::vector<CampaignCell> Swept = expandCells(Spec);
  EXPECT_EQ(Swept.size(), Cells.size() * 2 - 2); // noise cells don't sweep
  size_t WithSegment = 0;
  std::set<std::string> Keys;
  for (const CampaignCell &Cell : Swept) {
    std::string Key = Cell.key(Spec);
    EXPECT_TRUE(Keys.insert(Key).second) << "duplicate key " << Key;
    if (Key.find("q=cost:0.1:0.03|") != std::string::npos)
      ++WithSegment;
  }
  // Exactly the cost-policy run cells carry the segment; the Always
  // halves' keys are byte-identical to the unswept expansion's.
  EXPECT_EQ(WithSegment, Cells.size() - 2);
  for (const CampaignCell &Cell : Cells)
    EXPECT_TRUE(Keys.count(Cell.key(Spec))) << "legacy key lost";
}

TEST(CampaignTest, PolicySweepAggregatesSkipsAndStaysLegacyCleanByDefault) {
  // A policy sweep runs per-policy combos and persists/reloads the skips
  // counter through the ledger; the default axis emits no policy fields,
  // keeping pre-policy aggregates byte-identical.
  CampaignSpec Spec = tinySpec();
  Spec.Benchmarks = {"mvt"};
  Spec.Plans = {SamplingPlan::sequential(10)};
  Spec.Repetitions = 1;

  CampaignOptions Options;
  Options.StateDir = freshStateDir("policy_sweep");
  Options.Quiet = true;
  std::string DefaultJson = runToJson(Spec, Options);
  EXPECT_EQ(DefaultJson.find("\"policy\""), std::string::npos);
  EXPECT_EQ(DefaultJson.find("\"skips\""), std::string::npos);

  QueryPolicyConfig Alm;
  Alm.Kind = QueryPolicyKind::AlmThreshold;
  Alm.AbsFloor = 1e30; // skip every refine pick: maximal contrast
  Spec.Policies = {QueryPolicyConfig(), Alm};
  // Same state dir: the Always cells are reused, only alm cells run.
  std::string SweptJson = runToJson(Spec, Options);
  EXPECT_NE(SweptJson.find("\"policy\": \"always\""), std::string::npos);
  EXPECT_NE(SweptJson.find("\"policy\": \"alm:1e+30:0.05\""),
            std::string::npos);
  EXPECT_NE(SweptJson.find("\"skips\""), std::string::npos);

  // Aggregation reloads from the ledger: a second aggregate-only pass
  // (fresh process state, same dir) must reproduce the bytes, proving
  // skips survive the cell-line round-trip.
  CampaignResult Reloaded;
  ASSERT_TRUE(aggregateCampaign(Spec, Options, Reloaded));
  EXPECT_EQ(campaignJson(Spec, Reloaded), SweptJson);

  // The all-skip alm run bought no refine labels.
  const ComboResult *AlmCombo = nullptr;
  for (const ComboResult &Combo : Reloaded.Combos)
    if (Combo.Policy.Kind == QueryPolicyKind::AlmThreshold)
      AlmCombo = &Combo;
  ASSERT_NE(AlmCombo, nullptr);
  ASSERT_FALSE(AlmCombo->PlanResults.empty());
  const RunResult &AlmRun = AlmCombo->PlanResults.front();
  EXPECT_EQ(AlmRun.Stats.Skips, AlmRun.Stats.Iterations);
  std::filesystem::remove_all(Options.StateDir);
}

//===----------------------------------------------------------------------===//
// Scale-out: the ledger union, lease claiming
//===----------------------------------------------------------------------===//

namespace {

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

/// Complete lines (with their '\n') of a ledger file.
std::vector<std::string> ledgerLines(const std::string &Path) {
  std::vector<std::string> Lines;
  std::string Bytes = readFileBytes(Path);
  size_t Pos = 0;
  while (Pos < Bytes.size()) {
    size_t Nl = Bytes.find('\n', Pos);
    if (Nl == std::string::npos)
      break;
    Lines.push_back(Bytes.substr(Pos, Nl - Pos + 1));
    Pos = Nl + 1;
  }
  return Lines;
}

/// The complete lines of every cells*.jsonl in \p StateDir, sorted.
std::vector<std::string> unionLines(const std::string &StateDir) {
  std::vector<std::string> Lines;
  for (const auto &Entry : std::filesystem::directory_iterator(StateDir)) {
    std::string Name = Entry.path().filename().string();
    if (Name.rfind("cells", 0) == 0 && Name.size() > 6 &&
        Name.compare(Name.size() - 6, 6, ".jsonl") == 0)
      for (std::string &Line : ledgerLines(Entry.path().string()))
        Lines.push_back(std::move(Line));
  }
  std::sort(Lines.begin(), Lines.end());
  return Lines;
}

/// The cell key a ledger line carries.
std::string lineKey(const std::string &Line) {
  const std::string Prefix = "{\"cell\":\"";
  return Line.substr(Prefix.size(),
                     Line.find('"', Prefix.size()) - Prefix.size());
}

void writeShard(const std::string &Path, const std::vector<std::string> &Lines,
                const std::string &Tail = "") {
  std::ofstream Out(Path, std::ios::binary);
  for (const std::string &Line : Lines)
    Out << Line;
  Out << Tail;
}

/// A single-process reference campaign; returns its state dir.
std::string referenceCampaign(const CampaignSpec &Spec,
                              const std::string &Name) {
  CampaignOptions Options;
  Options.StateDir = freshStateDir(Name);
  Options.Quiet = true;
  CampaignProgress Progress = runCampaignCells(Spec, Options);
  EXPECT_TRUE(Progress.Complete);
  return Options.StateDir;
}

/// Every file under \p Dir with its size.
std::set<std::pair<std::string, uintmax_t>> listing(const std::string &Dir) {
  std::set<std::pair<std::string, uintmax_t>> Files;
  for (const auto &Entry : std::filesystem::recursive_directory_iterator(Dir))
    Files.insert({Entry.path().string(),
                  Entry.is_regular_file() ? Entry.file_size() : 0});
  return Files;
}

} // namespace

TEST(CampaignUnionTest, ShuffledDuplicatedTornShardsMergeByteIdentical) {
  CampaignSpec Spec = tinySpec();
  std::string RefDir = referenceCampaign(Spec, "union_ref");
  CampaignOptions Ref;
  Ref.StateDir = RefDir;
  std::vector<std::string> Lines = ledgerLines(Ref.ledgerPath());
  ASSERT_GT(Lines.size(), 5u);
  CampaignResult RefResult;
  ASSERT_TRUE(aggregateCampaign(Spec, Ref, RefResult));
  std::string RefJson = campaignJson(Spec, RefResult);

  // Seeded deals of the reference lines (each ends in '\n') into 1-5
  // ledgers, the plain run's cells.jsonl and lease workers'
  // cells.w<S>.jsonl, each line in a random ledger, each ledger in random
  // order, plus what a killed worker fleet leaves behind in random
  // numbers: byte-identical duplicates, sealed garbage lines and torn
  // tails.  The union is the whole ledger: a relaunch runs nothing, and
  // the aggregate is the single-process one.
  auto AnyLine = [&](Rng &R) -> const std::string & {
    return Lines[R.nextBounded(Lines.size())];
  };
  size_t PlantedDuplicates = 0, PlantedGarbage = 0, PlantedTorn = 0;
  size_t MinShards = 5, MaxShards = 1;
  for (uint64_t Deal = 0; Deal != 32; ++Deal) {
    SCOPED_TRACE("deal " + std::to_string(Deal));
    Rng R(hashCombine({0xdea1ull, Deal}));
    std::vector<std::vector<std::string>> Shards(1 + R.nextBounded(5));
    auto AnyShard = [&]() -> std::vector<std::string> & {
      return Shards[R.nextBounded(Shards.size())];
    };
    for (const std::string &Line : Lines)
      AnyShard().push_back(Line);
    size_t Duplicates = R.nextBounded(4), Garbage = R.nextBounded(4);
    for (size_t I = 0; I != Duplicates; ++I)
      AnyShard().push_back(AnyLine(R));
    // A sealed crash remnant: a line cut before its closing brace, then
    // sealed with a newline.
    for (size_t I = 0; I != Garbage; ++I) {
      const std::string &Line = AnyLine(R);
      AnyShard().push_back(Line.substr(0, 1 + R.nextBounded(Line.size() - 2)) +
                           "\n");
    }
    CampaignOptions Sharded;
    Sharded.StateDir = freshStateDir("union_shards");
    Sharded.Quiet = true;
    std::filesystem::create_directories(Sharded.StateDir);
    for (size_t S = 0; S != Shards.size(); ++S) {
      R.shuffle(Shards[S]);
      // A torn tail: a line cut anywhere before its newline.
      std::string Tail;
      if (R.nextBernoulli(0.5)) {
        const std::string &Line = AnyLine(R);
        Tail = Line.substr(0, 1 + R.nextBounded(Line.size() - 1));
        ++PlantedTorn;
      }
      writeShard(Sharded.StateDir +
                     (S ? "/cells.w" + std::to_string(S) + ".jsonl"
                        : "/cells.jsonl"),
                 Shards[S], Tail);
    }
    PlantedDuplicates += Duplicates;
    PlantedGarbage += Garbage;
    MinShards = std::min(MinShards, Shards.size());
    MaxShards = std::max(MaxShards, Shards.size());

    CampaignProgress Resumed = runCampaignCells(Spec, Sharded);
    EXPECT_EQ(Resumed.NewlyRun, 0u);
    EXPECT_EQ(Resumed.AlreadyDone, Resumed.TotalCells);
    EXPECT_TRUE(Resumed.Complete);
    CampaignResult UnionResult;
    ASSERT_TRUE(aggregateCampaign(Spec, Sharded, UnionResult));
    EXPECT_EQ(campaignJson(Spec, UnionResult), RefJson);
    std::filesystem::remove_all(Sharded.StateDir);
  }
  // The deals span 1 to 5 ledgers and planted every kind of debris.
  EXPECT_EQ(MinShards, 1u);
  EXPECT_EQ(MaxShards, 5u);
  EXPECT_GT(PlantedDuplicates, 0u);
  EXPECT_GT(PlantedGarbage, 0u);
  EXPECT_GT(PlantedTorn, 0u);
  std::filesystem::remove_all(RefDir);
}

TEST(CampaignUnionTest, ConflictingDuplicateQuarantinesItsCell) {
  CampaignSpec Spec = tinySpec();
  std::string RefDir = referenceCampaign(Spec, "conflict_ref");
  CampaignOptions Ref;
  Ref.StateDir = RefDir;
  std::vector<std::string> Lines = ledgerLines(Ref.ledgerPath());
  ASSERT_GT(Lines.size(), 2u);

  // Ledger B carries the same cell as ledger A with one digit flipped —
  // still parsable, same key, different bytes.  Cells are deterministic,
  // so this is corruption, never a legitimate state.
  std::string Tampered = Lines[0];
  size_t Field = Tampered.find("\"iterations\":");
  ASSERT_NE(Field, std::string::npos);
  char &Digit = Tampered[Field + std::strlen("\"iterations\":")];
  ASSERT_TRUE(Digit >= '0' && Digit <= '9');
  Digit = Digit == '9' ? '1' : char(Digit + 1);

  CampaignOptions Sharded;
  Sharded.StateDir = freshStateDir("conflict_shards");
  Sharded.Quiet = true;
  std::filesystem::create_directories(Sharded.StateDir);
  writeShard(Sharded.StateDir + "/cells.w0.jsonl", Lines);
  writeShard(Sharded.StateDir + "/cells.w1.jsonl", {Tampered});
  auto Before = listing(Sharded.StateDir);

  // A plain run and a lease worker alike quarantine exactly that key and
  // neither rerun nor append anything.
  for (bool Lease : {false, true}) {
    SCOPED_TRACE(Lease ? "lease worker" : "plain run");
    CampaignOptions Invocation = Sharded;
    Invocation.LeaseClaim = Lease;
    Invocation.WorkerId = Lease ? "w2" : "";
    CampaignProgress Progress = runCampaignCells(Spec, Invocation);
    EXPECT_FALSE(Progress.Complete);
    EXPECT_EQ(Progress.NewlyRun, 0u);
    EXPECT_EQ(Progress.AlreadyDone, Progress.TotalCells - 1);
    EXPECT_EQ(Progress.QuarantinedCells,
              std::vector<std::string>{lineKey(Lines[0])});
    EXPECT_EQ(listing(Sharded.StateDir), Before);
  }
  // The aggregate refuses the conflicting cell.
  CampaignResult Result;
  EXPECT_FALSE(aggregateCampaign(Spec, Sharded, Result));

  std::filesystem::remove_all(RefDir);
  std::filesystem::remove_all(Sharded.StateDir);
}

TEST(CampaignUnionTest, LeaseWorkersCooperateToByteIdenticalUnion) {
  CampaignSpec Spec = tinySpec();
  std::string RefDir = referenceCampaign(Spec, "lease_ref");
  CampaignOptions Ref;
  Ref.StateDir = RefDir;
  std::vector<std::string> RefLines = ledgerLines(Ref.ledgerPath());
  std::sort(RefLines.begin(), RefLines.end());

  // Two lease-claiming workers race over one state dir (threads here,
  // processes in tools/chaos_smoke.py; flock locks belong to the open
  // file description, so two descriptors in one process exclude each
  // other).
  CampaignOptions Base;
  Base.StateDir = freshStateDir("lease_workers");
  Base.Quiet = true;
  Base.LeaseClaim = true;
  Base.LeaseRangeCells = 2;
  CampaignProgress Progress[2];
  std::thread Workers[2];
  for (int W = 0; W != 2; ++W)
    Workers[W] = std::thread([&, W] {
      CampaignOptions Mine = Base;
      Mine.WorkerId = "w" + std::to_string(W);
      Progress[W] = runCampaignCells(Spec, Mine);
    });
  for (std::thread &T : Workers)
    T.join();

  size_t NewlyRun = 0;
  for (const CampaignProgress &P : Progress) {
    // Lease workers return only when the whole spec is covered.
    EXPECT_TRUE(P.Complete);
    EXPECT_TRUE(P.QuarantinedCells.empty());
    NewlyRun += P.NewlyRun;
  }
  // Each claim rescans the ledgers under its lock, so no cell ran twice:
  // the worker ledgers hold exactly the single-process lines.
  EXPECT_EQ(NewlyRun, expandCells(Spec).size());
  EXPECT_EQ(unionLines(Base.StateDir), RefLines);

  // A plain run over the fleet's state dir runs nothing and aggregates
  // the union.
  CampaignOptions Plain;
  Plain.StateDir = Base.StateDir;
  Plain.Quiet = true;
  CampaignProgress After = runCampaignCells(Spec, Plain);
  EXPECT_TRUE(After.Complete);
  EXPECT_EQ(After.NewlyRun, 0u);
  CampaignResult FleetResult, RefResult;
  ASSERT_TRUE(aggregateCampaign(Spec, Plain, FleetResult));
  ASSERT_TRUE(aggregateCampaign(Spec, Ref, RefResult));
  EXPECT_EQ(campaignJson(Spec, FleetResult), campaignJson(Spec, RefResult));

  std::filesystem::remove_all(RefDir);
  std::filesystem::remove_all(Base.StateDir);
}

//===----------------------------------------------------------------------===//
// Range policies: every execution rule holds in every mode
//===----------------------------------------------------------------------===//

namespace {

/// The two ways runCampaignCells obtains ranges of the cell list.
enum class RangeMode {
  Default, ///< the whole list once
  Lease    ///< one --lease-claim worker over 4-cell ranges
};

std::string modeName(const ::testing::TestParamInfo<RangeMode> &Info) {
  switch (Info.param) {
  case RangeMode::Default:
    return "Default";
  case RangeMode::Lease:
    return "Lease";
  }
  return "Unknown";
}

/// The runCampaignCells invocation \p Mode makes of one campaign.
CampaignOptions invocationFor(RangeMode Mode, CampaignOptions Options) {
  Options.Quiet = true;
  if (Mode == RangeMode::Lease) {
    Options.LeaseClaim = true;
    Options.WorkerId = "w0";
    Options.LeaseRangeCells = 4;
  }
  return Options;
}

/// Runs the campaign in \p Options.StateDir under \p Mode.
CampaignProgress runUnder(RangeMode Mode, const CampaignSpec &Spec,
                          const CampaignOptions &Options) {
  return runCampaignCells(Spec, invocationFor(Mode, Options));
}

/// The aggregate of the ledger union in \p Options.StateDir.
std::string aggregateJson(const CampaignSpec &Spec,
                          const CampaignOptions &Options) {
  CampaignResult Result;
  if (!aggregateCampaign(Spec, Options, Result))
    ADD_FAILURE() << "ledger in " << Options.StateDir << " is incomplete";
  return campaignJson(Spec, Result);
}

/// A clean single-process run's aggregate.
std::string cleanJson(const CampaignSpec &Spec, const std::string &Name) {
  CampaignOptions Clean;
  Clean.StateDir = freshStateDir(Name);
  std::string Json = runToJson(Spec, Clean);
  std::filesystem::remove_all(Clean.StateDir);
  return Json;
}

class CampaignPolicyTest : public ::testing::TestWithParam<RangeMode> {
protected:
  /// A state dir unique to this test and mode.
  std::string stateDir(const std::string &Name) const {
    return freshStateDir(Name + "_" + modeName({GetParam(), 0}));
  }
};

} // namespace

TEST_P(CampaignPolicyTest, InterruptAndResumeMatchesUninterrupted) {
  CampaignSpec Spec = tinySpec();
  CampaignOptions Interrupted;
  Interrupted.StateDir = stateDir("resume");
  Interrupted.MaxCells = 3;
  CampaignProgress First = runUnder(GetParam(), Spec, Interrupted);
  EXPECT_FALSE(First.Complete);
  EXPECT_EQ(First.NewlyRun, 3u);
  CampaignResult ShouldFail;
  EXPECT_FALSE(aggregateCampaign(Spec, Interrupted, ShouldFail));

  // Resume with a different thread count (and no cap): only the missing
  // cells run, and the aggregate matches an uninterrupted campaign.
  CampaignOptions Resumed = Interrupted;
  Resumed.MaxCells = 0;
  Resumed.Threads = 4;
  CampaignProgress Second = runUnder(GetParam(), Spec, Resumed);
  EXPECT_TRUE(Second.Complete);
  EXPECT_EQ(Second.AlreadyDone, First.NewlyRun);
  EXPECT_EQ(Second.NewlyRun, First.TotalCells - First.NewlyRun);
  EXPECT_EQ(aggregateJson(Spec, Resumed), cleanJson(Spec, "resume_clean"));
  std::filesystem::remove_all(Interrupted.StateDir);
}

TEST_P(CampaignPolicyTest, AggregateIdenticalUnderShuffledCompletionOrder) {
  CampaignSpec Spec = tinySpec();
  std::string Reference = cleanJson(Spec, "ordered");
  for (uint64_t ShuffleSeed : {7ull, 991ull}) {
    CampaignOptions Shuffled;
    Shuffled.StateDir = stateDir("shuffled" + std::to_string(ShuffleSeed));
    Shuffled.Threads = 2;
    Shuffled.ShuffleSeed = ShuffleSeed;
    EXPECT_TRUE(runUnder(GetParam(), Spec, Shuffled).Complete);
    EXPECT_EQ(aggregateJson(Spec, Shuffled), Reference)
        << "completion order leaked into the aggregate";
    std::filesystem::remove_all(Shuffled.StateDir);
  }
}

TEST_P(CampaignPolicyTest, EnospcQuarantinesOneCellAndResumeIsByteIdentical) {
  // A disk-full window spanning every retry of one append: the campaign
  // must quarantine that cell, finish the rest, and a re-launch must
  // retry exactly the quarantined cell and aggregate byte-identically.
  CampaignSpec Spec = tinySpec();
  CampaignOptions Options;
  Options.StateDir = stateDir("quarantine");

  FailSpec Fault;
  Fault.Errno = ENOSPC;
  Fault.Nth = 2;   // the second cell's append...
  Fault.Count = 4; // ...fails on all LedgerAppendAttempts attempts
  armFailPoint("ledger.append", Fault);
  CampaignProgress Progress = runUnder(GetParam(), Spec, Options);
  disarmAllFailPoints();

  EXPECT_FALSE(Progress.Complete);
  ASSERT_EQ(Progress.QuarantinedCells.size(), 1u);
  EXPECT_EQ(Progress.NewlyRun, Progress.TotalCells - 1);
  // The quarantined key is simply absent from the ledger...
  CampaignResult ShouldFail;
  EXPECT_FALSE(aggregateCampaign(Spec, Options, ShouldFail));

  // ...so the re-launch runs exactly it and nothing else.
  CampaignProgress Resumed = runUnder(GetParam(), Spec, Options);
  EXPECT_TRUE(Resumed.Complete);
  EXPECT_EQ(Resumed.NewlyRun, 1u);
  EXPECT_EQ(Resumed.AlreadyDone, Progress.TotalCells - 1);
  EXPECT_EQ(aggregateJson(Spec, Options), cleanJson(Spec, "quarantine_clean"));
  std::filesystem::remove_all(Options.StateDir);
}

TEST_P(CampaignPolicyTest, TornQuarantineRemnantIsSealedNotGluedToNextCell) {
  // Every attempt of one cell's append tears mid-line; the *next* cell's
  // append must seal the remnant before writing, or both records die.
  CampaignSpec Spec = tinySpec();
  CampaignOptions Options;
  Options.StateDir = stateDir("torn");

  FailSpec Fault;
  Fault.Mode = FailMode::Torn;
  Fault.TornBytes = 9;
  Fault.Errno = ENOSPC;
  Fault.Nth = 2;
  Fault.Count = 4;
  armFailPoint("ledger.append", Fault);
  CampaignProgress Progress = runUnder(GetParam(), Spec, Options);
  disarmAllFailPoints();

  EXPECT_FALSE(Progress.Complete);
  ASSERT_EQ(Progress.QuarantinedCells.size(), 1u);
  EXPECT_EQ(Progress.NewlyRun, Progress.TotalCells - 1);

  // The cells appended after the torn one parsed cleanly: resume runs
  // only the quarantined cell, and the aggregate matches a clean run.
  CampaignProgress Resumed = runUnder(GetParam(), Spec, Options);
  EXPECT_TRUE(Resumed.Complete);
  EXPECT_EQ(Resumed.NewlyRun, 1u);
  EXPECT_EQ(aggregateJson(Spec, Options), cleanJson(Spec, "torn_clean"));
  std::filesystem::remove_all(Options.StateDir);
}

TEST_P(CampaignPolicyTest, TotalLedgerFailureQuarantinesEverythingRecordsNothing) {
  // A permanently failing ledger (every append fails from the start) must
  // degrade to "all missing cells quarantined", never abort the process.
  CampaignSpec Spec = tinySpec();
  CampaignOptions Options;
  Options.StateDir = stateDir("allfail");

  FailSpec Fault;
  Fault.Errno = ENOSPC;
  armFailPoint("ledger.append", Fault); // every hit fires
  CampaignProgress Progress = runUnder(GetParam(), Spec, Options);
  disarmAllFailPoints();

  EXPECT_FALSE(Progress.Complete);
  EXPECT_EQ(Progress.QuarantinedCells.size(), Progress.TotalCells);
  EXPECT_EQ(Progress.NewlyRun, 0u);

  // Nothing made it into the ledger, so a clean re-launch runs it all.
  CampaignProgress Resumed = runUnder(GetParam(), Spec, Options);
  EXPECT_TRUE(Resumed.Complete);
  EXPECT_EQ(Resumed.NewlyRun, Progress.TotalCells);
  std::filesystem::remove_all(Options.StateDir);
}

TEST_P(CampaignPolicyTest, RelaunchWithNothingMissingWritesNothing) {
  // A finished campaign's relaunch (here by a fresh lease worker) must
  // not open a ledger, claim a lease or start a scheduler.
  CampaignSpec Spec = tinySpec();
  CampaignOptions Options;
  Options.StateDir = stateDir("noop");
  Options.Threads = 2;
  ASSERT_TRUE(runUnder(GetParam(), Spec, Options).Complete);
  auto Before = listing(Options.StateDir);
  CampaignOptions Invocation = invocationFor(GetParam(), Options);
  if (Invocation.LeaseClaim)
    Invocation.WorkerId = "w1";
  CampaignProgress Again = runCampaignCells(Spec, Invocation);
  EXPECT_TRUE(Again.Complete);
  EXPECT_EQ(Again.NewlyRun, 0u);
  EXPECT_EQ(Again.WorkersUsed, 0u);
  EXPECT_EQ(listing(Options.StateDir), Before);
  std::filesystem::remove_all(Options.StateDir);
}

INSTANTIATE_TEST_SUITE_P(RangePolicies, CampaignPolicyTest,
                         ::testing::Values(RangeMode::Default,
                                           RangeMode::Lease),
                         modeName);

TEST(CampaignPolicyRulesTest, LeaseWorkerAttemptsExactlyMaxCellsAtFourThreads) {
  // --max-cells caps the cells attempted in every mode: a lease worker
  // whose range holds more cells than the cap must not let its parallel
  // workers run past it.
  CampaignSpec Spec = tinySpec();
  CampaignOptions Options;
  Options.StateDir = freshStateDir("lease_maxcells");
  Options.Quiet = true;
  Options.LeaseClaim = true;
  Options.WorkerId = "w0";
  Options.Threads = 4;
  Options.MaxCells = 3;
  CampaignProgress Progress = runCampaignCells(Spec, Options);
  EXPECT_FALSE(Progress.Complete);
  EXPECT_EQ(Progress.NewlyRun, 3u);
  EXPECT_EQ(ledgerLines(Options.ledgerPath()).size(), 3u);
  std::filesystem::remove_all(Options.StateDir);
}

TEST(CampaignPolicyRulesTest, InlineLeaseRangeShufflesLikeAnUnshardedRun) {
  // --shuffle orders each range's missing cells in every mode: a lease
  // worker whose one range covers the spec appends in exactly the order
  // an unsharded inline run with the same seed does.
  CampaignSpec Spec = tinySpec();
  CampaignOptions Unsharded;
  Unsharded.StateDir = freshStateDir("shuffle_unsharded");
  Unsharded.Quiet = true;
  Unsharded.ShuffleSeed = 7;
  ASSERT_TRUE(runCampaignCells(Spec, Unsharded).Complete);

  CampaignOptions Lease = Unsharded;
  Lease.StateDir = freshStateDir("shuffle_lease");
  Lease.LeaseClaim = true;
  Lease.WorkerId = "w0";
  Lease.LeaseRangeCells = unsigned(expandCells(Spec).size());
  ASSERT_TRUE(runCampaignCells(Spec, Lease).Complete);

  std::vector<std::string> Expected = ledgerLines(Unsharded.ledgerPath());
  EXPECT_EQ(ledgerLines(Lease.ledgerPath()), Expected);
  // The shuffle really moved cells away from spec order.
  std::vector<std::string> Appended, SpecOrder;
  for (const std::string &Line : Expected)
    Appended.push_back(lineKey(Line));
  for (const CampaignCell &Cell : expandCells(Spec))
    SpecOrder.push_back(Cell.key(Spec));
  EXPECT_NE(Appended, SpecOrder);
  std::filesystem::remove_all(Unsharded.StateDir);
  std::filesystem::remove_all(Lease.StateDir);
}

TEST(CampaignPolicyRulesTest, FailedLeaseClaimsQuarantineTheirRangesAndReturn) {
  // A claim that fails with an error (EACCES, EMFILE, ENOLCK, EIO, ...;
  // here the lease.acquire failpoint) leaves the lock held by nobody, so
  // the worker must not wait for it: it quarantines that range's missing
  // cells unrun, runs every range it can claim, and returns.  A relaunch
  // without the fault runs exactly the quarantined cells.
  CampaignSpec Spec = tinySpec();
  std::string Clean = cleanJson(Spec, "claimfail_clean");
  std::vector<std::string> Keys;
  for (const CampaignCell &Cell : expandCells(Spec))
    Keys.push_back(Cell.key(Spec));
  for (uint64_t Fires : {~0ull, 1ull}) {
    CampaignOptions Options;
    Options.StateDir = freshStateDir("claimfail" + std::to_string(Fires));
    FailSpec Fault;
    Fault.Count = Fires; // every claim, or only the first
    armFailPoint("lease.acquire", Fault);
    CampaignProgress Failed = runUnder(RangeMode::Lease, Spec, Options);
    disarmAllFailPoints();

    EXPECT_FALSE(Failed.Complete);
    EXPECT_EQ(Failed.NewlyRun + Failed.QuarantinedCells.size(), Keys.size());
    if (Fires == 1) {
      // Exactly the cells of the one range whose claim failed.
      bool OneRange = false;
      for (const ShardRange &R : splitRangesByCells(
               Keys.size(),
               invocationFor(RangeMode::Lease, Options).LeaseRangeCells)) {
        std::vector<std::string> RangeKeys(Keys.begin() + R.Begin,
                                           Keys.begin() + R.End);
        std::sort(RangeKeys.begin(), RangeKeys.end());
        OneRange = OneRange || RangeKeys == Failed.QuarantinedCells;
      }
      EXPECT_TRUE(OneRange) << Failed.QuarantinedCells.size()
                            << " quarantined cell(s) are not one range";
    } else {
      EXPECT_EQ(Failed.NewlyRun, 0u);
    }

    CampaignProgress Resumed = runUnder(RangeMode::Lease, Spec, Options);
    EXPECT_TRUE(Resumed.Complete);
    EXPECT_TRUE(Resumed.QuarantinedCells.empty());
    EXPECT_EQ(Resumed.NewlyRun, Failed.QuarantinedCells.size());
    EXPECT_EQ(aggregateJson(Spec, Options), Clean);
    std::filesystem::remove_all(Options.StateDir);
  }
}

//===----------------------------------------------------------------------===//
// Ledger lines parse totally
//===----------------------------------------------------------------------===//

namespace {

/// One corrupt on-disk count: its test name and the JSON number.
struct BadCount {
  const char *Name;
  const char *Value;
};

class CorruptCountTest : public ::testing::TestWithParam<BadCount> {};

} // namespace

TEST_P(CorruptCountTest, LineIsGarbageAndResumeRerunsIt) {
  // A count that no size_t holds — negative, fractional, out of range —
  // must make its line garbage, never a cast into the aggregate.
  CampaignSpec Spec = tinySpec();
  std::string RefDir =
      referenceCampaign(Spec, std::string("badcount_ref_") + GetParam().Name);
  CampaignOptions Ref;
  Ref.StateDir = RefDir;
  std::vector<std::string> Lines = ledgerLines(Ref.ledgerPath());
  ASSERT_GT(Lines.size(), 1u);
  const std::string Field = "\"iterations\":";
  size_t Begin = Lines[0].find(Field);
  ASSERT_NE(Begin, std::string::npos);
  Begin += Field.size();
  Lines[0].replace(Begin, Lines[0].find(',', Begin) - Begin,
                   GetParam().Value);

  CampaignOptions Options;
  Options.StateDir =
      freshStateDir(std::string("badcount_") + GetParam().Name);
  Options.Quiet = true;
  std::filesystem::create_directories(Options.StateDir);
  writeShard(Options.StateDir + "/cells.w0.jsonl", Lines);

  CampaignProgress Resumed = runCampaignCells(Spec, Options);
  EXPECT_TRUE(Resumed.Complete);
  EXPECT_EQ(Resumed.AlreadyDone, Lines.size() - 1);
  EXPECT_EQ(Resumed.NewlyRun, 1u);
  CampaignResult RefResult;
  ASSERT_TRUE(aggregateCampaign(Spec, Ref, RefResult));
  EXPECT_EQ(aggregateJson(Spec, Options), campaignJson(Spec, RefResult));
  std::filesystem::remove_all(RefDir);
  std::filesystem::remove_all(Options.StateDir);
}

INSTANTIATE_TEST_SUITE_P(
    BadCounts, CorruptCountTest,
    ::testing::Values(BadCount{"Negative", "-1"},
                      BadCount{"Fractional", "2.5"},
                      BadCount{"OutOfRange", "1e300"}),
    [](const ::testing::TestParamInfo<BadCount> &Info) {
      return std::string(Info.param.Name);
    });
