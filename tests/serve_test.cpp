//===- tests/serve_test.cpp - serve engine + wire tests -------*- C++ -*-===//
//
// Pins the serving contract: the suggest/observe split is bit-identical
// to the batch step() loop; a killed-and-restored engine resumes every
// session with byte-identical suggestions, at any worker count and steal
// seed, over generated specs, kill points and torn log tails; each
// observe appends one line to its session log, and a refused append
// changes nothing; suggest is idempotent while a ticket is outstanding;
// sessions opened concurrently over every benchmark, sharing datasets
// built outside the engine lock, match a sequential engine;
// corrupt logs are skipped, never fatal; and the NDJSON wire layer maps
// requests to engine calls and errors to ok:false replies.
//
//===----------------------------------------------------------------------===//

#include "exp/Dataset.h"
#include "serve/ServeEngine.h"
#include "serve/Wire.h"
#include "spapt/Suite.h"
#include "support/FailPoint.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Serialize.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include <sys/stat.h>

using namespace alic;

namespace {

/// A seconds-cheap session: a few dozen iterations over a small pool.
SessionSpec tinySpec(uint64_t Seed = 3) {
  SessionSpec Spec;
  Spec.Benchmark = "atax";
  Spec.Scale = ExperimentScale::preset(ScaleKind::Smoke);
  Spec.Scale.NumConfigs = 200;
  Spec.Scale.MaxTrainingExamples = 14;
  Spec.Scale.CandidatesPerIteration = 12;
  Spec.Scale.ReferenceSetSize = 15;
  Spec.Scale.Particles = 30;
  Spec.Scale.TestSubset = 40;
  Spec.Seed = Seed;
  return Spec;
}

ServeOptions engineOptions(const std::string &StateDir, unsigned Threads,
                           uint64_t StealSeed = 0x57ea1ull) {
  ServeOptions Opts;
  Opts.StateDir = StateDir;
  Opts.Threads = Threads;
  Opts.StealSeed = StealSeed;
  return Opts;
}

/// Fresh per-test state directory under the gtest temp root.
std::string freshStateDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "alic_serve_" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

/// Exact byte-level identity of a suggestion (configs are ordinals, so
/// string rendering is lossless).
std::string fingerprint(const Suggestion &S) {
  std::string F = std::to_string(S.Ticket) + "|" +
                  std::to_string(int(S.Phase)) + "|" +
                  std::to_string(S.ObservationsPerConfig);
  for (const Config &C : S.Configs) {
    F += "|";
    for (uint16_t V : C)
      F += std::to_string(V) + ",";
  }
  // Declined configs are part of the replay contract too: a restored
  // session must reproduce every skip decision bit-identically.
  F += "|skipped:";
  for (const Config &C : S.Skipped) {
    F += "|";
    for (uint16_t V : C)
      F += std::to_string(V) + ",";
  }
  return F;
}

/// The client side of a session: measures suggested configs with its own
/// virtual profiler (state survives server restarts, like a real user's
/// machine does).
struct Client {
  explicit Client(const std::string &Benchmark)
      : Bench(createSpaptBenchmark(Benchmark)), Lab(*Bench, 0xc11e47) {}

  std::vector<double> measure(const Suggestion &S) {
    std::vector<double> Costs;
    for (const Config &C : S.Configs) {
      std::vector<double> Obs = Lab.measure(C, S.ObservationsPerConfig);
      Costs.insert(Costs.end(), Obs.begin(), Obs.end());
    }
    return Costs;
  }

  std::unique_ptr<SpaptBenchmark> Bench;
  Profiler Lab;
};

/// The whole content of \p Path.
std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

/// Complete lines of a session log.
size_t lineCount(const std::string &Path) {
  std::string Bytes = readFile(Path);
  return size_t(std::count(Bytes.begin(), Bytes.end(), '\n'));
}

/// Lowercase hex of \p Bytes: session-log lines are this encoding.
std::string toHex(const std::string &Bytes) {
  static const char Digits[] = "0123456789abcdef";
  std::string Hex;
  for (unsigned char B : Bytes) {
    Hex += Digits[B >> 4];
    Hex += Digits[B & 15];
  }
  return Hex;
}

std::string fromHex(const std::string &Hex) {
  std::string Bytes;
  for (size_t I = 0; I + 1 < Hex.size(); I += 2)
    Bytes += char(std::stoi(Hex.substr(I, 2), nullptr, 16));
  return Bytes;
}

/// The next suggestion and everything info reports, exactly: what a
/// restore must reproduce and a refused observe must leave as it was.
std::string sessionState(ServeEngine &Engine, const std::string &Id) {
  Suggestion S;
  SessionInfo Info;
  std::string Err;
  EXPECT_TRUE(Engine.suggest(Id, S, Err)) << Err;
  EXPECT_TRUE(Engine.sessionInfo(Id, Info, Err)) << Err;
  const LearnerStats &St = Info.Stats;
  char Total[32];
  std::snprintf(Total, sizeof(Total), "%a", Info.TotalCostSeconds);
  return fingerprint(S) + "#" + std::to_string(int(Info.Phase)) + "|" +
         std::to_string(St.Iterations) + "|" +
         std::to_string(St.DistinctExamples) + "|" +
         std::to_string(St.Revisits) + "|" +
         std::to_string(St.Observations) + "|" + std::to_string(St.Skips) +
         "|" + std::to_string(Info.Observes) + "|" + Total + "|" +
         std::to_string(Info.Done);
}

/// Runs suggest/measure/observe rounds until the session completes or
/// \p MaxRounds is hit, appending each round's suggestion fingerprint.
void drain(ServeEngine &Engine, const std::string &Id, Client &C,
           std::vector<std::string> &Fingerprints,
           size_t MaxRounds = size_t(-1)) {
  for (size_t Round = 0; Round != MaxRounds; ++Round) {
    Suggestion S;
    std::string Err;
    ASSERT_TRUE(Engine.suggest(Id, S, Err)) << Err;
    if (S.Phase == SuggestPhase::Done)
      return;
    Fingerprints.push_back(fingerprint(S));
    ASSERT_TRUE(Engine.observe(Id, S.Ticket, C.measure(S), Err)) << Err;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// The split loop is the batch loop
//===----------------------------------------------------------------------===//

// Drives one learner with step() and its twin with suggest/observe plus
// an external profiler on the same stream seed; every counter and every
// model prediction must match bitwise.
TEST(ServeSplit, SuggestObserveMatchesBatchStep) {
  auto Bench = createSpaptBenchmark("mvt");
  Dataset Data = buildDataset(*Bench, 150, 0.75, 5, 11);

  ExperimentScale Scale = ExperimentScale::preset(ScaleKind::Smoke);
  Scale.Particles = 30;
  ActiveLearnerConfig Cfg;
  Scale.applyTo(Cfg);
  Cfg.MaxTrainingExamples = 12;
  Cfg.CandidatesPerIteration = 10;
  Cfg.ReferenceSetSize = 12;
  Cfg.Seed = 5;

  for (SamplingPlan Plan :
       {SamplingPlan::sequential(4), SamplingPlan::fixed(3)}) {
    auto ModelA = makeSurrogateModel(ModelKind::DynaTree, Scale, Cfg.Seed);
    auto ModelB = makeSurrogateModel(ModelKind::DynaTree, Scale, Cfg.Seed);
    ActiveLearner A(*Bench, *ModelA, Data.Norm, Data.TrainPool, Plan, Cfg);
    ActiveLearner B(*Bench, *ModelB, Data.Norm, Data.TrainPool, Plan, Cfg);

    // B's "client" measures with the learner-internal profiler's exact
    // stream seed, so both learners see identical observations.
    Profiler Lab(*Bench, hashCombine({Cfg.Seed, 0x50524f46ull}));

    while (A.step()) {
    }
    while (true) {
      const Suggestion &S = B.suggest();
      if (S.Phase == SuggestPhase::Done)
        break;
      std::vector<double> Costs;
      for (const Config &C : S.Configs) {
        std::vector<double> Obs = Lab.measure(C, S.ObservationsPerConfig);
        Costs.insert(Costs.end(), Obs.begin(), Obs.end());
      }
      ASSERT_TRUE(B.observe(S.Ticket, Costs));
    }

    EXPECT_EQ(A.stats().Iterations, B.stats().Iterations);
    EXPECT_EQ(A.stats().DistinctExamples, B.stats().DistinctExamples);
    EXPECT_EQ(A.stats().Revisits, B.stats().Revisits);
    EXPECT_EQ(A.stats().Observations, B.stats().Observations);
    for (size_t I = 0; I != std::min<size_t>(25, Data.TestFeatures.size());
         ++I) {
      Prediction PA = ModelA->predict(Data.TestFeatures[I]);
      Prediction PB = ModelB->predict(Data.TestFeatures[I]);
      ASSERT_EQ(PA.Mean, PB.Mean);
      ASSERT_EQ(PA.Variance, PB.Variance);
    }
  }
}

//===----------------------------------------------------------------------===//
// Restart invisibility
//===----------------------------------------------------------------------===//

// Kills the engine after k observes, restores from snapshots, and pins
// that every remaining suggestion is byte-identical to an uninterrupted
// session — across worker counts and steal seeds.
TEST(ServeEngineTest, RestartInvisibleAtAnyWorkerCount) {
  // Uninterrupted reference session.
  std::vector<std::string> Reference;
  {
    ServeEngine Engine(engineOptions("", 0));
    std::string Err;
    ASSERT_TRUE(Engine.openSession("ref", tinySpec(), Err)) << Err;
    Client C("atax");
    drain(Engine, "ref", C, Reference);
    ASSERT_GT(Reference.size(), 8u);
  }

  struct Variant {
    unsigned Threads;
    uint64_t StealSeed;
    const char *Name;
  };
  const Variant Variants[] = {
      {0, 0x57ea1ull, "w0"},
      {1, 0x57ea1ull, "w1"},
      {8, 0x57ea1ull, "w8"},
      {8, 0xfeedull, "w8-steal"},
  };
  const size_t KillAfter = 6;

  for (const Variant &V : Variants) {
    SCOPED_TRACE(V.Name);
    std::string Dir = freshStateDir(std::string("restart_") + V.Name);
    Client C("atax");
    std::vector<std::string> Seen;
    {
      ServeEngine Engine(engineOptions(Dir, V.Threads, V.StealSeed));
      std::string Err;
      ASSERT_TRUE(Engine.openSession("s", tinySpec(), Err)) << Err;
      drain(Engine, "s", C, Seen, KillAfter);
      // Engine dropped here with the session mid-flight: the only state
      // that survives is the state directory, exactly like SIGKILL
      // (every acknowledged observe is on disk).
    }
    {
      ServeEngine Engine(engineOptions(Dir, V.Threads, V.StealSeed));
      size_t Skipped = 99;
      ASSERT_EQ(Engine.restoreSessions(&Skipped), 1u);
      EXPECT_EQ(Skipped, 0u);
      drain(Engine, "s", C, Seen);

      SessionInfo Info;
      std::string Err;
      ASSERT_TRUE(Engine.sessionInfo("s", Info, Err));
      EXPECT_TRUE(Info.Done);
    }
    EXPECT_EQ(Seen, Reference);
    std::filesystem::remove_all(Dir);
  }
}

// The write traffic of a session log: the header at open, then exactly
// one appended line per observe into the same file (no rewrite, no
// rename), so a session writes O(record) bytes per observe.
TEST(ServeEngineTest, EachObserveAppendsOneLineToTheSameFile) {
  std::string Dir = freshStateDir("traffic");
  std::string Path = Dir + "/sess-s.alsv";
  ServeEngine Engine(engineOptions(Dir, 0));
  std::string Err;
  ASSERT_TRUE(Engine.openSession("s", tinySpec(), Err)) << Err;
  struct stat Opened;
  ASSERT_EQ(::stat(Path.c_str(), &Opened), 0);
  EXPECT_EQ(lineCount(Path), 1u);
  Client C("atax");
  std::vector<std::string> Seen;
  for (size_t K = 1; K <= 5; ++K) {
    std::string Before = readFile(Path);
    drain(Engine, "s", C, Seen, 1);
    std::string After = readFile(Path);
    EXPECT_EQ(lineCount(Path), K + 1);
    // Appended: the earlier bytes are untouched.
    EXPECT_EQ(After.compare(0, Before.size(), Before), 0);
    struct stat Now;
    ASSERT_EQ(::stat(Path.c_str(), &Now), 0);
    EXPECT_EQ(Now.st_ino, Opened.st_ino);
  }
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Ticket lifecycle and error paths
//===----------------------------------------------------------------------===//

TEST(ServeEngineTest, SuggestIsIdempotentWhileOutstanding) {
  ServeEngine Engine(engineOptions("", 0));
  std::string Err;
  ASSERT_TRUE(Engine.openSession("s", tinySpec(), Err)) << Err;

  Suggestion First, Again;
  ASSERT_TRUE(Engine.suggest("s", First, Err));
  ASSERT_TRUE(Engine.suggest("s", Again, Err));
  EXPECT_EQ(fingerprint(First), fingerprint(Again));
  EXPECT_EQ(First.Phase, SuggestPhase::Explore);

  // Wrong ticket, wrong cost count, then success, then stale ticket.
  std::vector<double> Costs(First.Configs.size() *
                                First.ObservationsPerConfig,
                            0.5);
  EXPECT_FALSE(Engine.observe("s", First.Ticket + 7, Costs, Err));
  EXPECT_FALSE(Engine.observe("s", First.Ticket,
                              std::vector<double>(3, 0.5), Err));
  EXPECT_TRUE(Engine.observe("s", First.Ticket, Costs, Err)) << Err;
  EXPECT_FALSE(Engine.observe("s", First.Ticket, Costs, Err));

  // The next suggestion is a fresh ticket in the refine phase.
  ASSERT_TRUE(Engine.suggest("s", Again, Err));
  EXPECT_EQ(Again.Ticket, First.Ticket + 1);
  EXPECT_EQ(Again.Phase, SuggestPhase::Refine);
}

TEST(ServeEngineTest, ErrorPaths) {
  ServeEngine Engine(engineOptions("", 0));
  std::string Err;
  Suggestion S;
  EXPECT_FALSE(Engine.suggest("nope", S, Err));
  EXPECT_FALSE(Engine.observe("nope", 1, {0.5}, Err));
  SessionInfo Info;
  EXPECT_FALSE(Engine.sessionInfo("nope", Info, Err));
  EXPECT_FALSE(Engine.closeSession("nope"));

  EXPECT_FALSE(Engine.openSession("bad id!", tinySpec(), Err));
  EXPECT_FALSE(Engine.openSession("", tinySpec(), Err));
  SessionSpec Unknown = tinySpec();
  Unknown.Benchmark = "no-such-kernel";
  EXPECT_FALSE(Engine.openSession("s", Unknown, Err));

  ASSERT_TRUE(Engine.openSession("s", tinySpec(), Err)) << Err;
  EXPECT_FALSE(Engine.openSession("s", tinySpec(), Err)); // duplicate

  // Evaluation needs a fitted model; the fresh session is still explore.
  double Rmse = 0.0;
  EXPECT_FALSE(Engine.evaluate("s", Rmse, Err));

  EXPECT_TRUE(Engine.closeSession("s"));
  EXPECT_EQ(Engine.sessionCount(), 0u);
}

// closeSession racing in-flight calls on the same session: the callers
// hold a reference-counted handle, so under ASan/TSan this pins that no
// call ever touches a destroyed session (failed "unknown session" replies
// are the expected outcome, crashes and races are not).
TEST(ServeEngineTest, CloseRacingInFlightCallsIsSafe) {
  ServeEngine Engine(engineOptions("", 0));
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Hammers;
  for (int T = 0; T != 2; ++T)
    Hammers.emplace_back([&Engine, &Stop] {
      while (!Stop.load(std::memory_order_relaxed)) {
        Suggestion S;
        SessionInfo Info;
        std::string Err;
        if (Engine.suggest("raced", S, Err) &&
            S.Phase != SuggestPhase::Done)
          Engine.observe("raced", S.Ticket,
                         std::vector<double>(S.Configs.size() *
                                                 S.ObservationsPerConfig,
                                             0.5),
                         Err);
        Engine.sessionInfo("raced", Info, Err);
      }
    });
  std::string Err;
  for (int Round = 0; Round != 50; ++Round) {
    ASSERT_TRUE(Engine.openSession("raced", tinySpec(Round + 1), Err))
        << Err;
    EXPECT_TRUE(Engine.closeSession("raced"));
  }
  Stop = true;
  for (std::thread &H : Hammers)
    H.join();
  EXPECT_EQ(Engine.sessionCount(), 0u);
}

TEST(ServeEngineTest, ConcurrentOpensMatchASequentialEngine) {
  // Datasets are built outside the engine lock, once per key, and every
  // session on a key shares one dataset, pool view and benchmark.  Eight
  // threads open 44 sessions over all 11 benchmarks at once (four per
  // benchmark, so each dataset is asked for concurrently), then drive
  // them to completion; every session's suggestions must equal those of
  // a sequential engine with no scheduler.
  const std::vector<std::string> &Names = spaptBenchmarkNames();
  constexpr size_t NumSessions = 44, NumThreads = 8;
  auto specOf = [&](size_t K) {
    SessionSpec Spec = tinySpec(100 + K);
    Spec.Benchmark = Names[K % Names.size()];
    return Spec;
  };
  auto idOf = [](size_t K) { return "c" + std::to_string(K); };

  std::vector<std::vector<std::string>> Want(NumSessions), Got(NumSessions);
  {
    ServeEngine Sequential(engineOptions("", 0));
    for (size_t K = 0; K != NumSessions; ++K) {
      std::string Err;
      ASSERT_TRUE(Sequential.openSession(idOf(K), specOf(K), Err)) << Err;
      Client C(specOf(K).Benchmark);
      drain(Sequential, idOf(K), C, Want[K]);
      ASSERT_FALSE(Want[K].empty());
    }
  }

  ServeEngine Engine(engineOptions("", 2));
  std::atomic<bool> Go{false};
  std::atomic<size_t> Opened{0};
  std::vector<std::thread> Threads;
  for (size_t T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      for (size_t K = T; K < NumSessions; K += NumThreads) {
        std::string Err;
        if (Engine.openSession(idOf(K), specOf(K), Err))
          ++Opened;
        else
          ADD_FAILURE() << idOf(K) << ": " << Err;
      }
      for (size_t K = T; K < NumSessions; K += NumThreads) {
        Client C(specOf(K).Benchmark);
        drain(Engine, idOf(K), C, Got[K]);
      }
    });
  Go.store(true, std::memory_order_release);
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Opened.load(), NumSessions);
  EXPECT_EQ(Engine.sessionCount(), NumSessions);
  for (size_t K = 0; K != NumSessions; ++K)
    EXPECT_EQ(Got[K], Want[K]) << idOf(K) << " on " << specOf(K).Benchmark;
}

TEST(ServeEngineTest, CorruptLogsAreSkippedNotFatal) {
  std::string Dir = freshStateDir("corrupt");
  {
    ServeEngine Engine(engineOptions(Dir, 0));
    std::string Err;
    ASSERT_TRUE(Engine.openSession("good", tinySpec(), Err)) << Err;
    Client C("atax");
    std::vector<std::string> Seen;
    drain(Engine, "good", C, Seen, 4);
  }
  // A file that is no session log, a real log cut inside its header, a
  // whole copy under a name its header does not match (sorted before the
  // original, so it would win the id), and a leftover version-3
  // whole-session snapshot.
  {
    std::ofstream Bad(Dir + "/sess-bad.alsv", std::ios::binary);
    Bad << "this is not a session log\n";
  }
  {
    std::string Bytes = readFile(Dir + "/sess-good.alsv");
    std::ofstream Trunc(Dir + "/sess-trunc.alsv", std::ios::binary);
    Trunc << Bytes.substr(0, Bytes.find('\n') / 2);
    std::ofstream(Dir + "/sess-copy.alsv", std::ios::binary) << Bytes;
  }
  {
    ByteWriter Old;
    Old.writeU32(0x414c5356); // "ALSV"
    Old.writeU32(3);
    Old.writeString("old");
    Old.writeU64(0);
    Old.writeChecksum();
    ASSERT_TRUE(Old.writeFileDurable(Dir + "/sess-old.alsv").ok());
  }
  {
    ServeEngine Engine(engineOptions(Dir, 0));
    size_t Skipped = 0;
    EXPECT_EQ(Engine.restoreSessions(&Skipped), 1u);
    EXPECT_EQ(Skipped, 4u);
    EXPECT_EQ(Engine.sessionCount(), 1u);
    SessionInfo Info;
    std::string Err;
    ASSERT_TRUE(Engine.sessionInfo("good", Info, Err)) << Err;
    EXPECT_EQ(Info.Observes, 4u);
    Client C("atax");
    std::vector<std::string> Seen;
    drain(Engine, "good", C, Seen, 1);
  }
  {
    // The stale copy never shadows the log the session appends to.
    ServeEngine Engine(engineOptions(Dir, 0));
    EXPECT_EQ(Engine.restoreSessions(), 1u);
    SessionInfo Info;
    std::string Err;
    ASSERT_TRUE(Engine.sessionInfo("good", Info, Err)) << Err;
    EXPECT_EQ(Info.Observes, 5u);
  }
  std::filesystem::remove_all(Dir);
}

TEST(ServeEngineTest, FlippedSpecByteIsSkippedNotRestoredAsAnother) {
  // One flipped byte inside a log header's spec (here the session seed)
  // still parses — as a different session.  The checksum must reject it,
  // while the other session restores unchanged.
  const uint64_t OddSeed = 0x5eed5eed5eedull;
  std::string Dir = freshStateDir("flipped");
  std::string Err;
  Suggestion Want;
  {
    ServeEngine Engine(engineOptions(Dir, 0));
    ASSERT_TRUE(Engine.openSession("a", tinySpec(OddSeed), Err)) << Err;
    ASSERT_TRUE(Engine.openSession("b", tinySpec(2), Err)) << Err;
    Client C("atax");
    std::vector<std::string> Seen;
    drain(Engine, "a", C, Seen, 3);
    drain(Engine, "b", C, Seen, 3);
    ASSERT_TRUE(Engine.suggest("b", Want, Err)) << Err;
  }
  {
    std::string Path = Dir + "/sess-a.alsv";
    std::string Bytes = readFile(Path);
    std::string SeedBytes(8, '\0');
    for (int I = 0; I != 8; ++I)
      SeedBytes[size_t(I)] = char((OddSeed >> (8 * I)) & 0xff);
    // The seed's hex, at a byte boundary of the header line.
    size_t At = Bytes.find(toHex(SeedBytes));
    while (At != std::string::npos && At % 2)
      At = Bytes.find(toHex(SeedBytes), At + 1);
    ASSERT_LT(At, Bytes.find('\n'));
    Bytes.replace(At, 2, toHex(std::string(1, char(SeedBytes[0] ^ 0x01))));
    std::ofstream(Path, std::ios::binary | std::ios::trunc) << Bytes;
  }
  ServeEngine Engine(engineOptions(Dir, 0));
  size_t Skipped = 0;
  EXPECT_EQ(Engine.restoreSessions(&Skipped), 1u);
  EXPECT_EQ(Skipped, 1u);
  EXPECT_EQ(Engine.sessionCount(), 1u);
  Suggestion Got;
  ASSERT_TRUE(Engine.suggest("b", Got, Err)) << Err;
  EXPECT_EQ(fingerprint(Got), fingerprint(Want));
  std::filesystem::remove_all(Dir);
}

TEST(ServeEngineTest, ResealedUnrunnableSpecIsSkipped) {
  // A header with a valid checksum but a spec no session can run is
  // skipped like any corrupt one: a split fraction of 1.5 would split
  // past the sampled configurations, and model byte 2 names no model
  // (the retired gp_sor).
  auto Bits = [](double V) {
    std::string Out(sizeof(V), '\0');
    std::memcpy(&Out[0], &V, sizeof(V));
    return Out;
  };
  // The benchmark string (u64 length, then its bytes) precedes the model
  // byte.
  const std::string Benchmark = tinySpec().Benchmark;
  std::string BenchmarkField(8, '\0');
  BenchmarkField[0] = char(Benchmark.size());
  BenchmarkField += Benchmark;
  for (bool EditModel : {false, true}) {
    SCOPED_TRACE(EditModel ? "model byte 2" : "split fraction 1.5");
    std::string Dir = freshStateDir("unrunnable");
    {
      ServeEngine Engine(engineOptions(Dir, 0));
      std::string Err;
      ASSERT_TRUE(Engine.openSession("a", tinySpec(), Err)) << Err;
    }
    std::string Path = Dir + "/sess-a.alsv";
    std::string Header = readFile(Path);
    ASSERT_EQ(Header.back(), '\n');
    std::string Bytes = fromHex(Header.substr(0, Header.size() - 1));
    if (EditModel) {
      size_t At = Bytes.find(BenchmarkField);
      ASSERT_NE(At, std::string::npos);
      At += BenchmarkField.size();
      ASSERT_EQ(Bytes[At], char(ModelKind::DynaTree));
      Bytes[At] = char(2);
    } else {
      size_t At = Bytes.find(Bits(tinySpec().Scale.TrainFraction));
      ASSERT_NE(At, std::string::npos);
      Bytes.replace(At, 8, Bits(1.5));
    }
    ByteWriter W;
    W.writeRaw(Bytes.substr(0, Bytes.size() - 8)); // drop the old checksum
    W.writeChecksum();
    std::ofstream(Path, std::ios::binary | std::ios::trunc)
        << toHex(std::string(W.bytes().begin(), W.bytes().end())) << '\n';

    ServeEngine Engine(engineOptions(Dir, 0));
    size_t Skipped = 0;
    EXPECT_EQ(Engine.restoreSessions(&Skipped), 0u);
    EXPECT_EQ(Skipped, 1u);
    std::filesystem::remove_all(Dir);
  }
}

TEST(ServeEngineTest, UnrunnableSpecFailsOpenAndWritesNoLog) {
  // Restore skips a spec no session can run, so open must refuse it: a
  // session served from it would lose its acknowledged observes at the
  // next restart.
  std::vector<std::pair<const char *, void (*)(SessionSpec &)>> Edits = {
      {"batch 0", [](SessionSpec &S) { S.BatchSize = 0; }},
      {"0 particles", [](SessionSpec &S) { S.Scale.Particles = 0; }},
      {"split fraction 1", [](SessionSpec &S) { S.Scale.TrainFraction = 1; }},
      {"negative mellowness",
       [](SessionSpec &S) { S.Query.Mellowness = -1; }},
  };
  std::string Dir = freshStateDir("unrunnable_open");
  ServeEngine Engine(engineOptions(Dir, 0));
  for (const auto &[Name, Edit] : Edits) {
    SCOPED_TRACE(Name);
    SessionSpec Spec = tinySpec();
    Edit(Spec);
    std::string Err;
    EXPECT_FALSE(Engine.openSession("s", Spec, Err));
    EXPECT_NE(Err.find("not runnable"), std::string::npos) << Err;
  }
  EXPECT_EQ(Engine.sessionCount(), 0u);
  size_t Logs = 0;
  if (std::filesystem::exists(Dir))
    for (const auto &Entry : std::filesystem::directory_iterator(Dir))
      Logs += Entry.path().filename().string().rfind("sess-", 0) == 0;
  EXPECT_EQ(Logs, 0u);
  ServeEngine Restored(engineOptions(Dir, 0));
  size_t Skipped = 99;
  EXPECT_EQ(Restored.restoreSessions(&Skipped), 0u);
  EXPECT_EQ(Skipped, 0u);
  std::filesystem::remove_all(Dir);
}

TEST(ServeEngineTest, UncreatableStateDirFailsOpenNotConstruction) {
  // A state dir below a regular file can never be created.  Building the
  // engine must not throw; every open fails, naming the log it could not
  // write, and nothing is half-open.
  std::string Base = freshStateDir("notadir");
  {
    std::ofstream File(Base);
    File << "a regular file";
  }
  ServeEngine Engine(engineOptions(Base + "/state", 0));
  std::string Err;
  EXPECT_FALSE(Engine.openSession("s", tinySpec(), Err));
  EXPECT_NE(Err.find(Base + "/state/sess-s.alsv"), std::string::npos) << Err;
  EXPECT_EQ(Engine.sessionCount(), 0u);
  EXPECT_EQ(Engine.restoreSessions(), 0u);
  std::filesystem::remove_all(Base);
}

namespace {

/// Arms \p Site to fail every hit with \p Spec, observes the outstanding
/// suggestion (refused, leaving \p NewLines more newlines in the log),
/// disarms, and observes it again with its costs plus \p RetryCost
/// (accepted).  Then a restored engine must stand exactly where the live
/// one stands.
void refuseThenRetry(const char *Name, const char *Site, FailSpec Spec,
                     size_t NewLines, double RetryCost) {
  std::string Dir = freshStateDir(Name);
  std::string Path = Dir + "/sess-s.alsv";
  ServeEngine Engine(engineOptions(Dir, 0));
  std::string Err;
  ASSERT_TRUE(Engine.openSession("s", tinySpec(), Err)) << Err;
  Client C("atax");
  std::vector<std::string> Seen;
  drain(Engine, "s", C, Seen, 2);

  std::string Before = sessionState(Engine, "s");
  size_t Lines = lineCount(Path);
  Suggestion S;
  ASSERT_TRUE(Engine.suggest("s", S, Err)) << Err;
  std::vector<double> Costs = C.measure(S);
  armFailPoint(Site, Spec);
  EXPECT_FALSE(Engine.observe("s", S.Ticket, Costs, Err));
  disarmAllFailPoints();
  EXPECT_NE(Err.find(Path), std::string::npos) << Err;
  EXPECT_NE(Err.find("errno " + std::to_string(Spec.Errno)),
            std::string::npos)
      << Err;
  EXPECT_EQ(sessionState(Engine, "s"), Before);
  EXPECT_EQ(lineCount(Path), Lines + NewLines);

  // The client's retry is the retry, here with (possibly) new costs.
  for (double &Cost : Costs)
    Cost += RetryCost;
  ASSERT_TRUE(Engine.observe("s", S.Ticket, Costs, Err)) << Err;
  drain(Engine, "s", C, Seen, 1);

  ServeEngine Restored(engineOptions(Dir, 0));
  size_t Skipped = 99;
  ASSERT_EQ(Restored.restoreSessions(&Skipped), 1u);
  EXPECT_EQ(Skipped, 0u);
  EXPECT_EQ(sessionState(Restored, "s"), sessionState(Engine, "s"));
  std::filesystem::remove_all(Dir);
}

} // namespace

// Every attempt of the append fails before writing: the observe is
// refused with the path and errno, and nothing changed.
TEST(ServeEngineTest, FailedAppendRefusesObserveAndRetrySucceeds) {
  FailSpec Fault;
  Fault.Errno = ENOSPC;
  refuseThenRetry("append_fails", "session.append", Fault, 0, 0.0);
}

// Every attempt tears after 9 bytes, leaving an unterminated remnant
// that the retry's open seals into a line restore skips.
TEST(ServeEngineTest, TornAppendsAreSealedAndCleanRetrySucceeds) {
  FailSpec Fault;
  Fault.Mode = FailMode::Torn;
  Fault.TornBytes = 9;
  Fault.Errno = EIO;
  refuseThenRetry("append_torn", "session.append", Fault, 0, 0.0);
}

// Every fsync fails after a complete write: four refused records sit on
// disk (each retry sealed first), and the retry with other costs must
// win, as the last record of its ticket.
TEST(ServeEngineTest, FailedSyncLeavesRecordsAndTheRetryWins) {
  FailSpec Fault;
  Fault.Errno = EIO;
  refuseThenRetry("sync_fails", "session.sync", Fault, 7, 0.25);
}

TEST(ServeEngineTest, InjectedRestoreFaultSkipsNotFatal) {
  std::string Dir = freshStateDir("restorefault");
  {
    ServeEngine Engine(engineOptions(Dir, 0));
    std::string Err;
    ASSERT_TRUE(Engine.openSession("a", tinySpec(1), Err)) << Err;
    ASSERT_TRUE(Engine.openSession("b", tinySpec(2), Err)) << Err;
  }
  // The first log read fails (as an unreadable file would); the daemon
  // must skip it and still restore the other session.
  FailSpec Fault;
  Fault.Errno = EIO;
  Fault.Count = 1;
  armFailPoint("session.restore", Fault);
  ServeEngine Engine(engineOptions(Dir, 0));
  size_t Skipped = 0;
  EXPECT_EQ(Engine.restoreSessions(&Skipped), 1u);
  EXPECT_EQ(Skipped, 1u);
  EXPECT_EQ(Engine.sessionCount(), 1u);
  SessionInfo Info;
  std::string Err;
  EXPECT_TRUE(Engine.sessionInfo("b", Info, Err)) << Err;
  disarmAllFailPoints();
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Wire protocol
//===----------------------------------------------------------------------===//

namespace {

/// Dispatches one request and parses the reply object.
JsonValue roundTrip(ServeEngine &Engine, const std::string &Request,
                    bool *WantShutdown = nullptr) {
  std::string Reply;
  bool Shutdown = handleRequestLine(Engine, Request, Reply);
  if (WantShutdown)
    *WantShutdown = Shutdown;
  JsonValue Root;
  EXPECT_TRUE(parseJson(Reply.c_str(), Root)) << Reply;
  EXPECT_EQ(Root.K, JsonValue::Kind::Object) << Reply;
  return Root;
}

bool replyOk(const JsonValue &Reply) {
  const JsonValue *Ok = Reply.field("ok");
  return Ok && Ok->K == JsonValue::Kind::Bool && Ok->BoolValue;
}

} // namespace

TEST(ServeWireTest, FullExchange) {
  // The wire spec's scale comes from the environment; pin it small.
  ::setenv("ALIC_SCALE", "smoke", 1);
  ServeEngine Engine(engineOptions("", 0));

  EXPECT_TRUE(replyOk(roundTrip(Engine, "{\"op\":\"ping\"}")));

  JsonValue Opened = roundTrip(
      Engine, "{\"op\":\"open\",\"session\":\"w\",\"spec\":{"
              "\"benchmark\":\"atax\",\"model\":\"dynatree\","
              "\"scorer\":\"alm\",\"plan\":\"seq:4\",\"seed\":9,"
              "\"max_examples\":6}}");
  ASSERT_TRUE(replyOk(Opened));

  // Suggest returns the explore-phase seed configs and a ticket.
  JsonValue Suggested =
      roundTrip(Engine, "{\"op\":\"suggest\",\"session\":\"w\"}");
  ASSERT_TRUE(replyOk(Suggested));
  std::string Phase;
  ASSERT_TRUE(jsonStringField(Suggested, "phase", Phase));
  EXPECT_EQ(Phase, "explore");
  double Ticket = 0, PerConfig = 0;
  ASSERT_TRUE(jsonNumberField(Suggested, "ticket", Ticket));
  ASSERT_TRUE(
      jsonNumberField(Suggested, "observations_per_config", PerConfig));
  const JsonValue *Configs = Suggested.field("configs");
  ASSERT_TRUE(Configs && Configs->K == JsonValue::Kind::Array);
  ASSERT_FALSE(Configs->Items.empty());

  // Re-suggest returns the identical ticket (idempotency on the wire).
  JsonValue Again = roundTrip(Engine, "{\"op\":\"suggest\",\"session\":\"w\"}");
  double Ticket2 = -1;
  ASSERT_TRUE(jsonNumberField(Again, "ticket", Ticket2));
  EXPECT_EQ(Ticket, Ticket2);

  // Observe with the right number of costs.  A ticket that is no exact
  // non-negative integer is refused first, even one that truncates to the
  // outstanding ticket.
  size_t NumCosts = Configs->Items.size() * size_t(PerConfig);
  std::string Costs = ",\"costs\":[";
  for (size_t I = 0; I != NumCosts; ++I)
    Costs += (I ? ",0.5" : "0.5");
  Costs += "]}";
  for (std::string Bad : {std::to_string(uint64_t(Ticket)) + ".5",
                          std::string("1e20"), std::string("-1")})
    EXPECT_FALSE(replyOk(roundTrip(
        Engine, "{\"op\":\"observe\",\"session\":\"w\",\"ticket\":" +
                    Bad + Costs)))
        << Bad;
  std::string Observe = "{\"op\":\"observe\",\"session\":\"w\",\"ticket\":" +
                        std::to_string(uint64_t(Ticket)) + Costs;
  EXPECT_TRUE(replyOk(roundTrip(Engine, Observe)));

  // A stale ticket is refused without advancing the session.
  EXPECT_FALSE(replyOk(roundTrip(Engine, Observe)));

  JsonValue Info = roundTrip(Engine, "{\"op\":\"info\",\"session\":\"w\"}");
  ASSERT_TRUE(replyOk(Info));
  double Observes = 0;
  ASSERT_TRUE(jsonNumberField(Info, "observes", Observes));
  EXPECT_EQ(Observes, 1.0);
  JsonValue Eval = roundTrip(Engine, "{\"op\":\"eval\",\"session\":\"w\"}");
  ASSERT_TRUE(replyOk(Eval));
  double Rmse = -1;
  ASSERT_TRUE(jsonNumberField(Eval, "rmse", Rmse));
  EXPECT_GE(Rmse, 0.0);

  EXPECT_TRUE(replyOk(roundTrip(Engine, "{\"op\":\"close\",\"session\":\"w\"}")));
  EXPECT_EQ(Engine.sessionCount(), 0u);
}

TEST(ServeWireTest, ErrorsAndShutdown) {
  ::setenv("ALIC_SCALE", "smoke", 1);
  ServeEngine Engine(engineOptions("", 0));

  EXPECT_FALSE(replyOk(roundTrip(Engine, "not json at all")));
  EXPECT_FALSE(replyOk(roundTrip(Engine, "{\"session\":\"x\"}")));
  EXPECT_FALSE(replyOk(roundTrip(Engine, "{\"op\":\"sugest\",\"session\":\"x\"}")));
  EXPECT_FALSE(replyOk(roundTrip(Engine, "{\"op\":\"suggest\",\"session\":\"x\"}")));
  // Open specs parse totally: a token with a suffix, a wrapped sign or a
  // number outside its field's range is refused, never truncated; a
  // policy number must be a finite, unsigned JSON number.
  for (const char *Spec :
       {"\"model\":\"svm\"", "\"model\":\"gp_sor\"",
        "\"plan\":\"always\"",
        "\"plan\":\"seq:35junk\"", "\"plan\":\"seq:-1\"",
        "\"plan\":\"fixed:4294967296\"", "\"batch\":4294967297",
        "\"batch\":2.5", "\"batch\":0", "\"max_examples\":4294967297",
        "\"seed\":1e300", "\"dataset_seed\":-1",
        "\"policy\":\"cost:nan\"", "\"policy\":\"cost:inf\"",
        "\"policy\":\"alm:1e999\"", "\"policy\":\"cost:-1\"",
        "\"policy\":\"cost:0x10\"", "\"policy\":\"cost: 1\""})
    EXPECT_FALSE(replyOk(roundTrip(
        Engine, std::string("{\"op\":\"open\",\"session\":\"x\","
                            "\"spec\":{\"benchmark\":\"atax\",") +
                    Spec + "}}")))
        << Spec;

  // Every error above left the engine untouched.
  EXPECT_EQ(Engine.sessionCount(), 0u);

  bool Shutdown = false;
  EXPECT_TRUE(replyOk(roundTrip(Engine, "{\"op\":\"shutdown\"}", &Shutdown)));
  EXPECT_TRUE(Shutdown);
}

//===----------------------------------------------------------------------===//
// Query policies over the serve path
//===----------------------------------------------------------------------===//

// A cost-range session killed mid-flight must replay every skip decision
// bit-identically on restore — the skipped configs are in the
// fingerprint — across worker counts and steal seeds.
TEST(ServeEngineTest, PolicySkipsReplayIdenticallyAcrossRestarts) {
  SessionSpec Spec = tinySpec();
  Spec.Query.Kind = QueryPolicyKind::CostRange;
  // Aggressive constants: at this tiny stream length the defaults'
  // regret budget is still loose, and this test needs skips to happen.
  Spec.Query.Mellowness = 0.001;
  Spec.Query.RangeC1 = 0.1;

  std::vector<std::string> Reference;
  {
    ServeEngine Engine(engineOptions("", 0));
    std::string Err;
    ASSERT_TRUE(Engine.openSession("ref", Spec, Err)) << Err;
    Client C("atax");
    drain(Engine, "ref", C, Reference);
    ASSERT_GT(Reference.size(), 4u);
  }
  // The policy must have declined something, or this pins nothing.
  size_t WithSkips = 0;
  for (const std::string &F : Reference)
    if (F.find("skipped:|") != std::string::npos)
      ++WithSkips;
  ASSERT_GT(WithSkips, 0u);

  struct Variant {
    unsigned Threads;
    uint64_t StealSeed;
    const char *Name;
  };
  const Variant Variants[] = {
      {0, 0x57ea1ull, "w0"},
      {1, 0x57ea1ull, "w1"},
      {8, 0x57ea1ull, "w8"},
      {8, 0xfeedull, "w8-steal"},
  };
  const size_t KillAfter = 3;

  for (const Variant &V : Variants) {
    SCOPED_TRACE(V.Name);
    std::string Dir = freshStateDir(std::string("policy_restart_") + V.Name);
    Client C("atax");
    std::vector<std::string> Seen;
    {
      ServeEngine Engine(engineOptions(Dir, V.Threads, V.StealSeed));
      std::string Err;
      ASSERT_TRUE(Engine.openSession("s", Spec, Err)) << Err;
      drain(Engine, "s", C, Seen, KillAfter);
    }
    {
      ServeEngine Engine(engineOptions(Dir, V.Threads, V.StealSeed));
      size_t Skipped = 99;
      ASSERT_EQ(Engine.restoreSessions(&Skipped), 1u);
      EXPECT_EQ(Skipped, 0u);
      drain(Engine, "s", C, Seen);
    }
    EXPECT_EQ(Seen, Reference);
    std::filesystem::remove_all(Dir);
  }
}

//===----------------------------------------------------------------------===//
// Generated restore cases
//===----------------------------------------------------------------------===//

namespace {

/// One generated case: a session spec, where the engine dies, and what
/// the crash left at the end of the session log.
struct RestoreCase {
  SessionSpec Spec;
  unsigned Threads = 0;
  double KillFraction = 0.0; ///< of the uninterrupted run's rounds
  enum Damage { None, CutLastLine, GarbageFragment } Tail = None;
};

RestoreCase drawCase(Rng &Gen) {
  RestoreCase Case;
  Case.Spec = tinySpec(1 + Gen.nextBounded(1000));
  QueryPolicyConfig &Q = Case.Spec.Query;
  switch (Gen.nextBounded(3)) {
  case 0:
    break; // always
  case 1:
    Q.Kind = QueryPolicyKind::AlmThreshold;
    Q.AbsFloor = 0.01 * Gen.nextDouble();
    Q.RelFloor = 0.2 * Gen.nextDouble();
    break;
  default:
    Q.Kind = QueryPolicyKind::CostRange;
    Q.Mellowness = 0.001 + 0.1 * Gen.nextDouble();
    Q.RangeC1 = 0.01 + 0.1 * Gen.nextDouble();
  }
  Case.Spec.BatchSize = unsigned(1 + Gen.nextBounded(3));
  Case.Spec.Plan = Gen.nextBounded(2)
                       ? SamplingPlan::sequential(35)
                       : SamplingPlan::fixed(unsigned(1 + Gen.nextBounded(5)));
  Case.Threads = Gen.nextBounded(2) ? 2 : 0;
  Case.KillFraction = Gen.nextDouble();
  Case.Tail = RestoreCase::Damage(Gen.nextBounded(3));
  return Case;
}

/// The client's measurement: a pure function of (round, slot), so a
/// re-sent round carries the same costs, varied enough for the cost
/// policy to skip.
std::vector<double> roundCosts(const Suggestion &S, size_t Round) {
  std::vector<double> Costs(S.Configs.size() * S.ObservationsPerConfig);
  for (size_t Slot = 0; Slot != Costs.size(); ++Slot)
    Costs[Slot] = 0.4 + 0.2 * Rng(hashCombine({Round, Slot})).nextDouble();
  return Costs;
}

/// Plays rounds [Round, Stop) or until done, recording fingerprints.
void play(ServeEngine &Engine, size_t &Round, size_t Stop,
          std::vector<std::string> &Seen) {
  std::string Err;
  for (; Round != Stop; ++Round) {
    Suggestion S;
    ASSERT_TRUE(Engine.suggest("s", S, Err)) << Err;
    if (S.Phase == SuggestPhase::Done)
      return;
    Seen.push_back(fingerprint(S));
    ASSERT_TRUE(Engine.observe("s", S.Ticket, roundCosts(S, Round), Err))
        << Err;
  }
}

} // namespace

// Seeded cases over spec, policy, batch, plan, workers, kill point and
// tail damage: a session killed and restored from its log, driven on by
// the protocol's client rule, must emit every suggestion and end with
// the info of the uninterrupted in-memory run.
TEST(ServeRestoreGenerated, RestoredRunsMatchUninterruptedOnes) {
  Rng Gen(0x9e57ca5e);
  for (int Index = 0; Index != 24; ++Index) {
    RestoreCase Case = drawCase(Gen);
    SCOPED_TRACE("case " + std::to_string(Index));
    std::string Err;

    std::vector<std::string> Reference;
    std::string ReferenceState;
    {
      ServeEngine Engine(engineOptions("", 0));
      ASSERT_TRUE(Engine.openSession("s", Case.Spec, Err)) << Err;
      size_t Round = 0;
      play(Engine, Round, size_t(-1), Reference);
      ReferenceState = sessionState(Engine, "s");
    }
    ASSERT_GE(Reference.size(), 2u);
    size_t Kill = 1 + size_t(Case.KillFraction * double(Reference.size() - 1));

    std::string Dir = freshStateDir("generated_" + std::to_string(Index));
    std::vector<std::string> Seen;
    size_t Round = 0;
    {
      ServeEngine Engine(engineOptions(Dir, Case.Threads));
      ASSERT_TRUE(Engine.openSession("s", Case.Spec, Err)) << Err;
      play(Engine, Round, Kill, Seen);
    }
    std::string Path = Dir + "/sess-s.alsv";
    std::string Bytes = readFile(Path);
    if (Case.Tail == RestoreCase::CutLastLine) {
      // The last record's write was torn by the crash: it is lost.
      size_t Start = Bytes.rfind('\n', Bytes.size() - 2) + 1;
      Bytes.resize(Start + (Bytes.size() - Start) / 2);
    } else if (Case.Tail == RestoreCase::GarbageFragment) {
      Bytes += "0f1e2d3c4b5a69"; // no newline: a write the crash cut off
    }
    std::ofstream(Path, std::ios::binary | std::ios::trunc) << Bytes;

    ServeEngine Engine(engineOptions(Dir, Case.Threads));
    size_t Skipped = 99;
    ASSERT_EQ(Engine.restoreSessions(&Skipped), 1u);
    EXPECT_EQ(Skipped, 0u);
    // The client rule: re-suggest; a byte-identical reply means the
    // observe was lost, so the same costs are sent again.
    Suggestion S;
    ASSERT_TRUE(Engine.suggest("s", S, Err)) << Err;
    bool Lost = fingerprint(S) == Seen.back();
    EXPECT_EQ(Lost, Case.Tail == RestoreCase::CutLastLine);
    if (Lost) {
      ASSERT_TRUE(Engine.observe("s", S.Ticket, roundCosts(S, Round - 1), Err))
          << Err;
    }
    play(Engine, Round, size_t(-1), Seen);
    EXPECT_EQ(Seen, Reference);
    EXPECT_EQ(sessionState(Engine, "s"), ReferenceState);
    std::filesystem::remove_all(Dir);
  }
}

TEST(ServeWireTest, PolicyFieldsOnTheWire) {
  ::setenv("ALIC_SCALE", "smoke", 1);
  ServeEngine Engine(engineOptions("", 0));

  // An unknown policy token is refused and opens nothing.
  EXPECT_FALSE(replyOk(roundTrip(
      Engine,
      "{\"op\":\"open\",\"session\":\"q\",\"spec\":{\"policy\":\"maybe\"}}")));
  EXPECT_EQ(Engine.sessionCount(), 0u);

  ASSERT_TRUE(replyOk(roundTrip(
      Engine, "{\"op\":\"open\",\"session\":\"q\",\"spec\":{"
              "\"benchmark\":\"atax\",\"plan\":\"seq:4\",\"seed\":9,"
              "\"max_examples\":6,\"policy\":\"cost:0.1:0.03\"}}")));

  // Suggest replies always carry the skipped array (empty pre-refine).
  JsonValue Suggested =
      roundTrip(Engine, "{\"op\":\"suggest\",\"session\":\"q\"}");
  ASSERT_TRUE(replyOk(Suggested));
  const JsonValue *Skipped = Suggested.field("skipped");
  ASSERT_TRUE(Skipped && Skipped->K == JsonValue::Kind::Array);
  EXPECT_TRUE(Skipped->Items.empty());

  // Info splits the consumed refine picks into queries + skips.
  JsonValue Info = roundTrip(Engine, "{\"op\":\"info\",\"session\":\"q\"}");
  ASSERT_TRUE(replyOk(Info));
  double Queries = -1, Skips = -1;
  ASSERT_TRUE(jsonNumberField(Info, "queries", Queries));
  ASSERT_TRUE(jsonNumberField(Info, "skips", Skips));
  EXPECT_EQ(Queries, 0.0);
  EXPECT_EQ(Skips, 0.0);
}
