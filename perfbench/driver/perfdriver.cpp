//===- perfbench/driver/perfdriver.cpp - Benchmark driver ------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
//
// The compiled half of perfbench; perfbench/run.py drives it.  It links
// libalic and calls only public headers, so every span below sits at a
// call into a layer's public API, never inside the program:
//
//   perfdriver datasets DIR REPS
//       cold-builds the smoke datasets the campaign reads, REPS times.
//   perfdriver serve-record OUT SEED SESSIONS THREADS
//       drives SESSIONS sessions to completion on an in-process ServeEngine
//       through handleRequestLine and writes every request with its reply:
//       the load the daemon is given and the reference it is checked
//       against.
//   perfdriver campaign-trace STATE_DIR BASELINE BUILD_DIR SUMMARY TRACE
//       replays every cell of the smoke campaign inline with spans and
//       checks each against the ledger line in STATE_DIR.
//   perfdriver serve-trace STREAM WORK_DIR SUMMARY TRACE
//       replays a recorded stream through the wire, the engine, and a bare
//       learner, and a quarter of it through the wire with a state dir;
//       layer self times are the differences between those passes.  It
//       also restores that quarter's halfway state from its snapshots.
//
// Run with ALIC_SCALE=smoke.  SUMMARY is a flat JSON object of per-layer
// metrics; TRACE is Chrome trace-event JSON (chrome://tracing, Perfetto).
//
//===----------------------------------------------------------------------===//

#include "core/ActiveLearner.h"
#include "exp/Campaign.h"
#include "exp/Dataset.h"
#include "exp/Runner.h"
#include "serve/ServeEngine.h"
#include "serve/Wire.h"
#include "spapt/Suite.h"
#include "stats/Metrics.h"
#include "stats/OnlineStats.h"
#include "support/Env.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Rng.h"

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

using namespace alic;

namespace {

[[noreturn]] void die(const std::string &Message) {
  std::fprintf(stderr, "perfdriver: %s\n", Message.c_str());
  std::exit(1);
}

uint64_t nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

double msSince(uint64_t StartNs) { return double(nowNs() - StartNs) / 1e6; }

/// CPU time this process has used, in ms.
double cpuMs() {
  timespec Ts;
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return double(Ts.tv_sec) * 1e3 + double(Ts.tv_nsec) / 1e6;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    die("cannot read " + Path);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

void writeFile(const std::string &Path, const std::string &Data) {
  std::FILE *Out = std::fopen(Path.c_str(), "wb");
  if (!Out || std::fwrite(Data.data(), 1, Data.size(), Out) != Data.size())
    die("cannot write " + Path);
  std::fclose(Out);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// One timed call into a layer.  Id indexes Tracer::Ids (a cell key or a
/// session id); Parent indexes Tracer::Spans.
struct Span {
  const char *Name;
  uint64_t Start;
  uint64_t End;
  int64_t Parent;
  uint32_t Id;
};

/// Spans of one single-threaded replay, kept in memory and written out at
/// the end.  When Enabled is false every call is a branch and nothing is
/// recorded, which is how the untraced replay of the same spec runs.
struct Tracer {
  bool Enabled = false;
  std::vector<Span> Spans;
  std::vector<std::string> Ids{""};
  uint32_t CurrentId = 0;
  std::vector<int64_t> Stack;

  int64_t open(const char *Name) {
    if (!Enabled)
      return -1;
    Spans.push_back(
        {Name, nowNs(), 0, Stack.empty() ? -1 : Stack.back(), CurrentId});
    Stack.push_back(int64_t(Spans.size() - 1));
    return Stack.back();
  }
  void close(int64_t Index) {
    if (Index < 0)
      return;
    Spans[size_t(Index)].End = nowNs();
    Stack.pop_back();
  }
  uint32_t internId(const std::string &Id) {
    Ids.push_back(Id);
    return uint32_t(Ids.size() - 1);
  }
};

Tracer Trace;

class SpanScope {
public:
  explicit SpanScope(const char *Name) : Index(Trace.open(Name)) {}
  ~SpanScope() { Trace.close(Index); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  int64_t Index;
};

struct LayerTime {
  double SelfMs = 0;
  uint64_t Calls = 0;
};

/// Self time per span name: a span's duration minus the time its direct
/// children cover.
std::map<std::string, LayerTime> layerTimes() {
  std::vector<uint64_t> ChildNs(Trace.Spans.size(), 0);
  for (const Span &S : Trace.Spans)
    if (S.Parent >= 0)
      ChildNs[size_t(S.Parent)] += S.End - S.Start;
  std::map<std::string, LayerTime> Out;
  for (size_t I = 0; I != Trace.Spans.size(); ++I) {
    const Span &S = Trace.Spans[I];
    LayerTime &L = Out[S.Name];
    L.SelfMs += double(S.End - S.Start - ChildNs[I]) / 1e6;
    ++L.Calls;
  }
  return Out;
}

/// Chrome trace-event JSON ("X" complete events, microseconds).  Capped so
/// a long replay cannot fill the disk; the layer totals use every span.
void writeChromeTrace(const std::string &Path) {
  constexpr size_t MaxEvents = 400000;
  uint64_t Origin = Trace.Spans.empty() ? 0 : Trace.Spans.front().Start;
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  size_t N = std::min(Trace.Spans.size(), MaxEvents);
  for (size_t I = 0; I != N; ++I) {
    const Span &S = Trace.Spans[I];
    Out += formatString(
        "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
        "\"dur\":%.3f,\"args\":{\"id\":\"%s\",\"parent\":%lld}}%s\n",
        S.Name, double(S.Start - Origin) / 1e3,
        double(S.End - S.Start) / 1e3, jsonEscape(Trace.Ids[S.Id]).c_str(),
        (long long)S.Parent, I + 1 == N ? "" : ",");
  }
  Out += "]}\n";
  writeFile(Path, Out);
}

/// Flat JSON object of named numbers.
class Summary {
public:
  void set(const std::string &Name, double Value) { Values[Name] = Value; }
  void write(const std::string &Path) const {
    std::string Out = "{";
    bool First = true;
    for (const auto &[Name, Value] : Values) {
      Out += formatString("%s\n  \"%s\": %.17g", First ? "" : ",",
                          Name.c_str(), Value);
      First = false;
    }
    Out += "\n}\n";
    writeFile(Path, Out);
  }

private:
  std::map<std::string, double> Values;
};

//===----------------------------------------------------------------------===//
// Model proxy
//===----------------------------------------------------------------------===//

/// Span names of one surrogate family.
struct ModelNames {
  const char *Fit, *Update, *Alm, *Alc, *Predict;
};
const ModelNames DynaTreeNames = {
    "model.dynatree.fit", "model.dynatree.update", "model.dynatree.alm",
    "model.dynatree.alc", "model.dynatree.predict"};
const ModelNames GpNames = {"model.gp.fit", "model.gp.update", "model.gp.alm",
                            "model.gp.alc", "model.gp.predict"};

/// Work counters of one surrogate family across a replay.
struct ModelCounters {
  uint64_t Updates = 0;
  uint64_t CandidatesScored = 0;
  ScoreStats Score;
};

/// Forwards every call to the real model inside a span, and hands scoring
/// a ScoreStats sink.  Pure forwarding, so results stay bit-identical.
class TracedModel final : public SurrogateModel {
public:
  TracedModel(std::unique_ptr<SurrogateModel> Inner, ModelKind Kind,
              ModelCounters &Counters)
      : Inner(std::move(Inner)),
        Names(Kind == ModelKind::DynaTree ? DynaTreeNames : GpNames),
        Counters(Counters) {}

  void fit(const FlatRows &X, const std::vector<double> &Y) override {
    SpanScope S(Names.Fit);
    Inner->fit(X, Y);
  }
  void update(RowRef X, double Y) override {
    SpanScope S(Names.Update);
    ++Counters.Updates;
    Inner->update(X, Y);
  }
  Prediction predict(RowRef X) const override {
    SpanScope S(Names.Predict);
    return Inner->predict(X);
  }
  void predictBatch(const FlatRows &X, size_t Count,
                    Prediction *Out) const override {
    SpanScope S(Names.Predict);
    Inner->predictBatch(X, Count, Out);
  }
  std::vector<double> almScores(const FlatRows &Candidates,
                                const ScoreContext &Ctx) const override {
    SpanScope S(Names.Alm);
    Counters.CandidatesScored += Candidates.size();
    return Inner->almScores(Candidates, withSink(Ctx));
  }
  std::vector<double> alcScores(const FlatRows &Candidates,
                                const FlatRows &Reference,
                                const ScoreContext &Ctx) const override {
    SpanScope S(Names.Alc);
    Counters.CandidatesScored += Candidates.size();
    return Inner->alcScores(Candidates, Reference, withSink(Ctx));
  }
  size_t numObservations() const override { return Inner->numObservations(); }
  void setScheduler(Scheduler *Workers) override {
    Inner->setScheduler(Workers);
  }

private:
  ScoreContext withSink(const ScoreContext &Ctx) const {
    ScoreContext Out = Ctx;
    Out.Stats = &Counters.Score;
    return Out;
  }

  std::unique_ptr<SurrogateModel> Inner;
  ModelNames Names;
  ModelCounters &Counters;
};

double selfMs(const std::map<std::string, LayerTime> &Times,
              const std::string &Name) {
  auto It = Times.find(Name);
  return It == Times.end() ? 0.0 : It->second.SelfMs;
}

uint64_t callCount(const std::map<std::string, LayerTime> &Times,
                   const std::string &Name) {
  auto It = Times.find(Name);
  return It == Times.end() ? 0 : It->second.Calls;
}

void reportModel(Summary &Out, const std::map<std::string, LayerTime> &Times,
                 const std::string &Family, const ModelCounters &C) {
  std::string Prefix = "model." + Family + ".";
  for (const char *Op : {"fit", "update", "alm", "alc", "predict"})
    Out.set(Prefix + Op + "_ms", selfMs(Times, Prefix + Op));
  Out.set(Prefix + "updates", double(C.Updates));
  Out.set(Prefix + "candidates_scored", double(C.CandidatesScored));
  if (Family == "dynatree") {
    Out.set(Prefix + "particle_terms",
            double(C.Score.ParticleTerms.load(std::memory_order_relaxed)));
    Out.set(Prefix + "leaf_walks",
            double(C.Score.UniqueLeafWalks.load(std::memory_order_relaxed)));
  }
}

/// Sum of every model span's self time.
double modelSelfMs(const std::map<std::string, LayerTime> &Times) {
  double Sum = 0;
  for (const auto &[Name, L] : Times)
    if (Name.rfind("model.", 0) == 0)
      Sum += L.SelfMs;
  return Sum;
}

//===----------------------------------------------------------------------===//
// datasets
//===----------------------------------------------------------------------===//

/// The smoke-scale dataset of \p Benchmark with the campaign's seed (serve
/// sessions default to the same seed), through the blob cache \p Cache.
Dataset smokeDataset(const std::string &Benchmark, const std::string &Cache) {
  ExperimentScale S = ExperimentScale::fromEnv();
  auto B = createSpaptBenchmark(Benchmark);
  return loadOrBuildDataset(*B, S.NumConfigs, S.TrainFraction,
                            S.MeanObservations, CampaignDatasetSeed, Cache);
}

/// Cold-builds every smoke dataset into \p Reps fresh caches DIR/rep<i>
/// and prints each build's wall seconds, one per line.  Each build is
/// ~25 ms, so timing them here keeps process start out of the number.
int cmdDatasets(const std::string &Dir, size_t Reps) {
  for (size_t Rep = 0; Rep != Reps; ++Rep) {
    std::string Cache = Dir + "/rep" + std::to_string(Rep);
    uint64_t Start = nowNs();
    for (const std::string &Name : spaptBenchmarkNames())
      smokeDataset(Name, Cache);
    std::printf("%.9f\n", msSince(Start) / 1e3);
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// serve-record
//===----------------------------------------------------------------------===//

/// Cost the client reports for slot \p Slot of ticket \p Ticket of session
/// \p Session: a pure function of those and the workload seed.
double clientCost(uint64_t Seed, uint64_t Session, uint64_t Ticket,
                  uint64_t Slot) {
  uint64_t H = hashCombine({Seed, Session, Ticket, Slot, 0xc057ull});
  return 0.05 + 0.2 * double(H >> 11) * 0x1p-53;
}

/// Records one session's whole life as tab-separated lines
/// `<index>\t<tag>\t<request>\t<reply>`; tags are open, sug, obs, done,
/// info and eval.
std::string recordSession(ServeEngine &Engine, uint64_t Seed, size_t Index) {
  const std::vector<std::string> &Names = spaptBenchmarkNames();
  std::string Id = "s" + std::to_string(Index);
  // Every seed gets the same benchmark mix (a rotation), so the work per
  // run does not depend on which benchmarks a seed happens to draw.
  const std::string &Benchmark = Names[(Seed + Index) % Names.size()];
  // Wire numbers are doubles; keep the session seed exactly representable.
  uint64_t SessionSeed = hashCombine({Seed, Index, 0x5e55ull}) >> 11;

  std::string Out, Reply;
  auto record = [&](const char *Tag, const std::string &Request) {
    Out += std::to_string(Index) + "\t" + Tag + "\t" + Request + "\t" +
           Reply + "\n";
  };
  auto exchange = [&](const char *Tag, const std::string &Request) {
    handleRequestLine(Engine, Request, Reply);
    record(Tag, Request);
  };
  exchange("open", "{\"op\":\"open\",\"session\":\"" + Id +
                       "\",\"spec\":{\"benchmark\":\"" + Benchmark +
                       "\",\"model\":\"dynatree\",\"scorer\":\"alc\","
                       "\"plan\":\"seq:35\",\"seed\":" +
                       std::to_string(SessionSeed) + "}}");
  const std::string Suggest =
      "{\"op\":\"suggest\",\"session\":\"" + Id + "\"}";
  while (true) {
    handleRequestLine(Engine, Suggest, Reply);
    JsonValue Root;
    std::string Phase;
    if (!parseJson(Reply.c_str(), Root) ||
        !jsonStringField(Root, "phase", Phase))
      die("session " + Id + ": bad suggest reply " + Reply);
    if (Phase == "done") {
      record("done", Suggest);
      break;
    }
    record("sug", Suggest);
    double Ticket = 0, PerConfig = 0;
    const JsonValue *Configs = Root.field("configs");
    if (!jsonNumberField(Root, "ticket", Ticket) ||
        !jsonNumberField(Root, "observations_per_config", PerConfig) ||
        !Configs)
      die("session " + Id + ": bad suggest reply " + Reply);
    size_t NumCosts = Configs->Items.size() * size_t(PerConfig);
    std::string Observe = "{\"op\":\"observe\",\"session\":\"" + Id +
                          "\",\"ticket\":" + std::to_string(uint64_t(Ticket)) +
                          ",\"costs\":[";
    for (size_t Slot = 0; Slot != NumCosts; ++Slot)
      Observe += (Slot ? "," : "") +
                 formatJsonDouble(
                     clientCost(Seed, Index, uint64_t(Ticket), Slot));
    exchange("obs", Observe + "]}");
  }
  exchange("info", "{\"op\":\"info\",\"session\":\"" + Id + "\"}");
  exchange("eval", "{\"op\":\"eval\",\"session\":\"" + Id + "\"}");
  return Out;
}

int cmdServeRecord(const std::string &OutPath, uint64_t Seed, size_t Sessions,
                   unsigned Threads) {
  ServeEngine Engine(ServeOptions{});
  std::vector<std::string> Streams(Sessions);
  std::vector<std::thread> Workers;
  Threads = std::max(1u, Threads);
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([&, T] {
      for (size_t I = T; I < Sessions; I += Threads)
        Streams[I] = recordSession(Engine, Seed, I);
    });
  for (std::thread &W : Workers)
    W.join();
  std::string All;
  for (const std::string &S : Streams)
    All += S;
  writeFile(OutPath, All);
  return 0;
}

//===----------------------------------------------------------------------===//
// campaign-trace
//===----------------------------------------------------------------------===//

/// The spec of `alic_campaign --models=dynatree,gp --scorers=alm,alc
/// --seeds=2` under ALIC_SCALE=smoke, built the way the CLI builds it.
CampaignSpec smokeCampaignSpec() {
  CampaignSpec Spec;
  Spec.Scale = ExperimentScale::fromEnv();
  Spec.ScaleName = scaleName(getScaleKind());
  Spec.Plans = defaultCampaignPlans(Spec.Scale);
  Spec.Models = {ModelKind::DynaTree, ModelKind::Gp};
  Spec.Scorers = {ScorerKind::Alm, ScorerKind::Alc};
  Spec.Repetitions = 2;
  return Spec;
}

/// A run cell's ledger line, rendered as exp/Campaign renders it.
std::string runCellLine(const std::string &Key, const RunResult &R) {
  std::string Line = "{\"cell\":\"" + Key + "\"";
  Line += formatString(",\"iterations\":%zu,\"distinct\":%zu,"
                       "\"revisits\":%zu,\"observations\":%zu",
                       R.Stats.Iterations, R.Stats.DistinctExamples,
                       R.Stats.Revisits, R.Stats.Observations);
  if (R.Stats.Skips)
    Line += formatString(",\"skips\":%zu", R.Stats.Skips);
  Line += ",\"final_rmse\":" + formatJsonDouble(R.FinalRmse);
  Line += ",\"total_cost_seconds\":" + formatJsonDouble(R.TotalCostSeconds);
  Line += ",\"curve\":[";
  for (size_t I = 0; I != R.Curve.size(); ++I) {
    const CurvePoint &P = R.Curve[I];
    Line += formatString("%s[%zu,", I ? "," : "", P.Iteration);
    Line += formatJsonDouble(P.CostSeconds) + "," + formatJsonDouble(P.Rmse) +
            "]";
  }
  return Line + "]}\n";
}

struct CampaignReplay {
  ModelCounters DynaTree, Gp;
  uint64_t Observations = 0;
  size_t Matched = 0, Mismatched = 0;
};

/// One run cell through suggest → Profiler → observe, stepped the way
/// runLearning steps it, with the learner's own Profiler seed.
RunResult replayRunCell(const CampaignSpec &Spec, const CampaignCell &Cell,
                        const Dataset &D, CampaignReplay &R) {
  const ExperimentScale &S = Spec.Scale;
  auto B = createSpaptBenchmark(Cell.Benchmark);
  uint64_t Seed = hashCombine({Spec.BaseRunSeed, uint64_t(Cell.Rep)});
  TracedModel Model(makeSurrogateModel(Cell.Model, S, Seed), Cell.Model,
                    Cell.Model == ModelKind::DynaTree ? R.DynaTree : R.Gp);
  ActiveLearnerConfig Cfg;
  Cfg.Scorer = Cell.Scorer;
  Cfg.BatchSize = Cell.BatchSize;
  Cfg.Query = Cell.Policy;
  S.applyTo(Cfg);
  Cfg.Seed = Seed;
  ActiveLearner Learner(*B, Model, D.Norm, D.TrainPool, Cell.Plan, Cfg);
  Profiler Prof(*B, hashCombine({Seed, 0x50524f46ull}));

  size_t NumEval = std::min(S.TestSubset, D.TestFeatures.size());
  auto evalRmse = [&] {
    std::vector<Prediction> Preds(NumEval);
    Model.predictBatch(D.TestFeatures, NumEval, Preds.data());
    std::vector<double> Pred(NumEval), Actual(NumEval);
    for (size_t I = 0; I != NumEval; ++I) {
      Pred[I] = Preds[I].Mean;
      Actual[I] = D.TestMeans[I];
    }
    return rootMeanSquaredError(Pred, Actual);
  };
  auto step = [&] {
    const Suggestion *Sg;
    {
      SpanScope Sp("core.suggest");
      Sg = &Learner.suggest();
    }
    if (Sg->Phase == SuggestPhase::Done)
      return false;
    std::vector<double> Costs;
    {
      SpanScope Sp("measure.profiler");
      if (Sg->Configs.empty()) {
        // a skip phase measures nothing
      } else if (Sg->Phase == SuggestPhase::Refine &&
                 Cell.Plan.PlanKind == SamplingPlan::Kind::Sequential) {
        Costs = Prof.measureBatch(Sg->Configs);
      } else {
        for (const Config &C : Sg->Configs) {
          std::vector<double> Obs = Prof.measure(C, Sg->ObservationsPerConfig);
          Costs.insert(Costs.end(), Obs.begin(), Obs.end());
        }
      }
    }
    uint64_t Ticket = Sg->Ticket;
    SpanScope Sp("core.observe");
    if (!Learner.observe(Ticket, Costs))
      die("learner refused its own measurements");
    return true;
  };

  RunResult Result;
  step();
  Result.Curve.push_back({0, Prof.ledger().totalSeconds(), evalRmse()});
  while (step()) {
    size_t Iter = Learner.stats().Iterations;
    if (Iter % S.EvalEvery == 0 || Learner.done())
      Result.Curve.push_back({Iter, Prof.ledger().totalSeconds(), evalRmse()});
  }
  if (Result.Curve.back().Iteration != Learner.stats().Iterations)
    Result.Curve.push_back({Learner.stats().Iterations,
                            Prof.ledger().totalSeconds(), evalRmse()});
  Result.Stats = Learner.stats();
  Result.FinalRmse = Result.Curve.back().Rmse;
  Result.TotalCostSeconds = Prof.ledger().totalSeconds();
  R.Observations += Prof.ledger().Runs;
  return Result;
}

/// One noise cell (the Table 2 measurement) and its ledger line, computed
/// as exp/Campaign computes it.
std::string replayNoiseCell(const CampaignSpec &Spec, const std::string &Key,
                            const std::string &Benchmark, CampaignReplay &R) {
  auto B = createSpaptBenchmark(Benchmark);
  size_t NumConfigs = std::min<size_t>(Spec.Scale.NumConfigs / 4, 600);
  Rng Draw(hashCombine({Spec.DatasetSeed, 0x7ab1e2ull}));
  std::vector<Config> Configs = B->space().sampleDistinct(Draw, NumConfigs);
  Profiler Prof(*B, 0x5eed);
  OnlineStats Var, Ci35, Ci5;
  for (const Config &C : Configs) {
    std::vector<double> Obs;
    {
      SpanScope Sp("measure.profiler");
      Obs = Prof.measure(C, 35);
    }
    OnlineStats Runs, Five;
    for (size_t I = 0; I != Obs.size(); ++I) {
      Runs.add(Obs[I]);
      if (I < 5)
        Five.add(Obs[I]);
    }
    Var.add(Runs.variance());
    Ci35.add(Runs.ciOverMean());
    Ci5.add(Five.ciOverMean());
  }
  R.Observations += Prof.ledger().Runs;
  std::vector<double> Stats = {Var.min(),  Var.mean(),  Var.max(),
                               Ci35.min(), Ci35.mean(), Ci35.max(),
                               Ci5.min(),  Ci5.mean(),  Ci5.max()};
  std::string Line = "{\"cell\":\"" + Key + "\",\"noise\":[";
  for (size_t I = 0; I != Stats.size(); ++I)
    Line += (I ? "," : "") + formatJsonDouble(Stats[I]);
  return Line + "]}\n";
}

/// Ledger lines keyed by cell key.
std::unordered_map<std::string, std::string>
ledgerLines(const std::string &Path) {
  std::unordered_map<std::string, std::string> Lines;
  std::istringstream In(readFile(Path));
  std::string Line;
  const std::string Prefix = "{\"cell\":\"";
  while (std::getline(In, Line)) {
    if (Line.rfind(Prefix, 0) != 0)
      continue;
    size_t End = Line.find('"', Prefix.size());
    Lines[Line.substr(Prefix.size(), End - Prefix.size())] = Line + "\n";
  }
  return Lines;
}

/// Replays the whole campaign, each cell twice, untraced and traced in
/// alternating order so machine drift falls on both alike; every replay
/// of a cell must render its ledger line byte for byte.
int cmdCampaignTrace(const std::string &StateDir, const std::string &Baseline,
                     const std::string &BuildDir,
                     const std::string &SummaryPath,
                     const std::string &TracePath) {
  CampaignSpec Spec = smokeCampaignSpec();
  std::unordered_map<std::string, std::string> Ledger =
      ledgerLines(StateDir + "/cells.jsonl");

  Trace.Enabled = true;
  uint64_t Start = nowNs();
  for (const std::string &Name : Spec.benchmarkList()) {
    SpanScope Sp("exp.dataset.build");
    smokeDataset(Name, BuildDir);
  }
  double BuildMs = msSince(Start);
  std::map<std::string, Dataset> Datasets;
  Start = nowNs();
  for (const std::string &Name : Spec.benchmarkList()) {
    SpanScope Sp("exp.dataset.load");
    Datasets.emplace(Name, smokeDataset(Name, StateDir + "/datasets"));
  }
  double LoadMs = msSince(Start);

  CampaignReplay Traced, Untraced;
  double TracedMs = 0, UntracedMs = 0;
  std::vector<CampaignCell> Cells = expandCells(Spec);
  for (size_t K = 0; K != Cells.size(); ++K) {
    const CampaignCell &Cell = Cells[K];
    std::string Key = Cell.key(Spec);
    for (int Turn = 0; Turn != 2; ++Turn) {
      Trace.Enabled = (Turn == 0) == (K % 2 == 0);
      CampaignReplay &R = Trace.Enabled ? Traced : Untraced;
      if (Trace.Enabled)
        Trace.CurrentId = Trace.internId(Key);
      Start = nowNs();
      std::string Line;
      {
        SpanScope Sp("exp.cell");
        Line = Cell.CellKind == CampaignCell::Kind::Noise
                   ? replayNoiseCell(Spec, Key, Cell.Benchmark, R)
                   : runCellLine(Key,
                                 replayRunCell(Spec, Cell,
                                               Datasets.at(Cell.Benchmark), R));
      }
      (Trace.Enabled ? TracedMs : UntracedMs) += msSince(Start);
      Trace.CurrentId = 0;
      auto It = Ledger.find(Key);
      if (It != Ledger.end() && It->second == Line)
        ++R.Matched;
      else
        ++R.Mismatched;
    }
  }
  Trace.Enabled = true;
  Start = nowNs();
  bool AggregateMatches = false;
  {
    SpanScope Sp("exp.campaign.aggregate");
    CampaignOptions Options;
    Options.StateDir = StateDir;
    CampaignResult Result;
    AggregateMatches = aggregateCampaign(Spec, Options, Result) &&
                       campaignJson(Spec, Result) == readFile(Baseline);
  }
  double AggregateMs = msSince(Start);
  std::map<std::string, LayerTime> T = layerTimes();

  Summary Out;
  Out.set("exp.dataset.build_ms", BuildMs);
  Out.set("exp.dataset.load_ms", LoadMs);
  Out.set("exp.campaign.aggregate_ms", AggregateMs);
  Out.set("core.suggest.self_ms", selfMs(T, "core.suggest"));
  Out.set("core.suggest.calls", double(callCount(T, "core.suggest")));
  Out.set("core.observe.self_ms", selfMs(T, "core.observe"));
  Out.set("core.observe.calls", double(callCount(T, "core.observe")));
  reportModel(Out, T, "dynatree", Traced.DynaTree);
  reportModel(Out, T, "gp", Traced.Gp);
  Out.set("measure.profiler_ms", selfMs(T, "measure.profiler"));
  Out.set("measure.observations", double(Traced.Observations));

  // What the traced replay spent outside every layer span (learner and
  // model construction, line rendering) is the unattributed remainder.
  double Wall = BuildMs + LoadMs + TracedMs + AggregateMs;
  double Attributed = BuildMs + LoadMs + AggregateMs + modelSelfMs(T) +
                      selfMs(T, "core.suggest") + selfMs(T, "core.observe") +
                      selfMs(T, "measure.profiler");
  Out.set("trace.wall_ms", Wall);
  Out.set("trace.unattributed_ms", Wall - Attributed);
  Out.set("trace.overhead_pct", 100.0 * (TracedMs - UntracedMs) / UntracedMs);
  Out.set("replay.cells_matched", double(Traced.Matched));
  Out.set("replay.mismatches", double(Traced.Mismatched + Untraced.Mismatched +
                                      !AggregateMatches));
  Out.write(SummaryPath);
  writeChromeTrace(TracePath);
  return 0;
}

//===----------------------------------------------------------------------===//
// serve-trace
//===----------------------------------------------------------------------===//

struct Exchange {
  std::string Request, Reply;
};

/// One session's recorded life, with each observe pre-parsed so the
/// direct passes time only engine and learner work.
struct SessionStream {
  std::string Id, Benchmark;
  uint64_t Seed = 0;
  Exchange Open, Done, Info, Eval;
  std::vector<Exchange> Suggests, Observes;
  std::vector<uint64_t> Tickets;
  std::vector<std::vector<double>> Costs;
};

std::vector<SessionStream> readStream(const std::string &Path) {
  std::vector<SessionStream> Sessions;
  std::istringstream In(readFile(Path));
  std::string Line;
  while (std::getline(In, Line)) {
    size_t T1 = Line.find('\t');
    size_t T2 = T1 == std::string::npos ? T1 : Line.find('\t', T1 + 1);
    size_t T3 = T2 == std::string::npos ? T2 : Line.find('\t', T2 + 1);
    if (T3 == std::string::npos)
      die("malformed stream line");
    size_t Index = size_t(std::stoul(Line.substr(0, T1)));
    std::string Tag = Line.substr(T1 + 1, T2 - T1 - 1);
    Exchange E{Line.substr(T2 + 1, T3 - T2 - 1), Line.substr(T3 + 1)};
    if (Index >= Sessions.size())
      Sessions.resize(Index + 1);
    SessionStream &S = Sessions[Index];
    JsonValue Root;
    if (!parseJson(E.Request.c_str(), Root))
      die("malformed request " + E.Request);
    if (Tag == "open") {
      const JsonValue *Spec = Root.field("spec");
      double Seed = 0;
      if (!jsonStringField(Root, "session", S.Id) || !Spec ||
          !jsonStringField(*Spec, "benchmark", S.Benchmark) ||
          !jsonNumberField(*Spec, "seed", Seed))
        die("malformed open " + E.Request);
      S.Seed = uint64_t(Seed);
      S.Open = E;
    } else if (Tag == "sug") {
      S.Suggests.push_back(E);
    } else if (Tag == "obs") {
      double Ticket = 0;
      const JsonValue *Costs = Root.field("costs");
      if (!jsonNumberField(Root, "ticket", Ticket) || !Costs)
        die("malformed observe " + E.Request);
      S.Tickets.push_back(uint64_t(Ticket));
      S.Costs.emplace_back();
      for (const JsonValue &C : Costs->Items)
        S.Costs.back().push_back(C.Number);
      S.Observes.push_back(E);
    } else if (Tag == "done") {
      S.Done = E;
    } else if (Tag == "info") {
      S.Info = E;
    } else if (Tag == "eval") {
      S.Eval = E;
    }
  }
  return Sessions;
}

/// One way of replaying the recorded stream.  The driver runs every pass
/// over the same group of sessions before moving to the next group, so
/// machine drift falls on all passes alike.
class ReplayPass {
public:
  virtual ~ReplayPass() = default;
  /// Opens session \p I (timed into OpenMs by the caller).
  virtual void open(size_t I, const SessionStream &S) = 0;
  /// Round trip \p R of session \p I.
  virtual void roundTrip(size_t I, const SessionStream &S, size_t R) = 0;
  /// The final suggest, which must report done.
  virtual void finish(size_t I, const SessionStream &S) = 0;
  /// Untimed: checks the final info/eval, then drops the session.
  virtual void verifyAndClose(size_t I, const SessionStream &S) = 0;
  /// Spans are recorded while this pass runs.
  virtual bool traced() const { return false; }

  double OpenMs = 0, TrafficMs = 0, TrafficCpuMs = 0;
  /// Write syscalls and bytes during traffic (/proc/self/io).
  double WriteCalls = 0, WriteBytes = 0;
  size_t Mismatches = 0;
};

std::string evalReply(double Rmse) {
  return "{\"ok\":true,\"rmse\":" + formatJsonDouble(Rmse) + "}";
}

/// Every request line through handleRequestLine; replies compared byte
/// for byte with the daemon's.
class WirePass final : public ReplayPass {
public:
  explicit WirePass(const ServeOptions &Opts) : Engine(Opts) {}
  void open(size_t, const SessionStream &S) override { check(S.Open); }
  void roundTrip(size_t, const SessionStream &S, size_t R) override {
    check(S.Suggests[R]);
    check(S.Observes[R]);
  }
  void finish(size_t, const SessionStream &S) override { check(S.Done); }
  void verifyAndClose(size_t, const SessionStream &S) override {
    check(S.Info);
    check(S.Eval);
    Engine.closeSession(S.Id);
  }

private:
  void check(const Exchange &E) {
    handleRequestLine(Engine, E.Request, Reply);
    Mismatches += Reply != E.Reply;
  }
  ServeEngine Engine;
  std::string Reply;
};

/// The same traffic through ServeEngine's own methods.
class EnginePass final : public ReplayPass {
public:
  EnginePass() : Engine(ServeOptions{}) {}
  void open(size_t, const SessionStream &S) override {
    handleRequestLine(Engine, S.Open.Request, Reply);
    Mismatches += Reply != S.Open.Reply;
  }
  void roundTrip(size_t, const SessionStream &S, size_t R) override {
    Mismatches += !(Engine.suggest(S.Id, Sg, Err) &&
                    Sg.Ticket == S.Tickets[R] &&
                    Engine.observe(S.Id, S.Tickets[R], S.Costs[R], Err));
  }
  void finish(size_t, const SessionStream &S) override {
    Mismatches += !Engine.suggest(S.Id, Sg, Err) ||
                  Sg.Phase != SuggestPhase::Done;
  }
  void verifyAndClose(size_t, const SessionStream &S) override {
    SessionInfo Info;
    double Rmse = 0;
    Mismatches += !(Engine.sessionInfo(S.Id, Info, Err) &&
                    Engine.evaluate(S.Id, Rmse, Err) &&
                    evalReply(Rmse) == S.Eval.Reply);
    Engine.closeSession(S.Id);
  }

private:
  ServeEngine Engine;
  Suggestion Sg;
  std::string Reply, Err;
};

/// The same traffic on a bare ActiveLearner per session, built the way
/// ServeEngine::buildSession builds one, with the model proxy.
class BarePass final : public ReplayPass {
public:
  BarePass(size_t Sessions, bool Traced)
      : Learners(Sessions), Traced(Traced) {}
  bool traced() const override { return Traced; }

  void open(size_t I, const SessionStream &S) override {
    SessionSpec Spec;
    Spec.Benchmark = S.Benchmark;
    Spec.Seed = S.Seed;
    auto It = Datasets.find(S.Benchmark);
    if (It == Datasets.end())
      It = Datasets.emplace(S.Benchmark, smokeDataset(S.Benchmark, "")).first;
    Bare &B = Learners[I];
    B.Data = &It->second;
    B.Bench = createSpaptBenchmark(Spec.Benchmark);
    B.Model = std::make_unique<TracedModel>(
        makeSurrogateModel(Spec.Model, Spec.Scale, Spec.Seed), Spec.Model,
        Counters);
    ActiveLearnerConfig Cfg;
    Spec.Scale.applyTo(Cfg);
    Cfg.Scorer = Spec.Scorer;
    Cfg.BatchSize = std::max(1u, Spec.BatchSize);
    Cfg.Seed = Spec.Seed;
    Cfg.Query = Spec.Query;
    B.Learner = std::make_unique<ActiveLearner>(
        *B.Bench, *B.Model, B.Data->Norm, B.Data->TrainPool, Spec.Plan, Cfg);
    if (Traced)
      B.TraceId = Trace.internId(S.Id);
  }
  void roundTrip(size_t I, const SessionStream &S, size_t R) override {
    Bare &B = Learners[I];
    Trace.CurrentId = B.TraceId;
    uint64_t Ticket;
    {
      SpanScope Sp("core.suggest");
      Ticket = B.Learner->suggest().Ticket;
    }
    SpanScope Sp("core.observe");
    Mismatches += Ticket != S.Tickets[R] ||
                  !B.Learner->observe(S.Tickets[R], S.Costs[R]);
  }
  void finish(size_t I, const SessionStream &) override {
    Bare &B = Learners[I];
    Trace.CurrentId = B.TraceId;
    SpanScope Sp("core.suggest");
    Mismatches += B.Learner->suggest().Phase != SuggestPhase::Done;
  }
  void verifyAndClose(size_t I, const SessionStream &S) override {
    // The RMSE the eval op computes: point-wise predict over the subset.
    Bare &B = Learners[I];
    const Dataset &D = *B.Data;
    size_t NumEval = std::min(TestSubset, D.TestFeatures.size());
    std::vector<double> Pred(NumEval), Actual(NumEval);
    for (size_t J = 0; J != NumEval; ++J) {
      Pred[J] = B.Model->predict(D.TestFeatures[J]).Mean;
      Actual[J] = D.TestMeans[J];
    }
    Mismatches +=
        evalReply(rootMeanSquaredError(Pred, Actual)) != S.Eval.Reply;
    B = Bare();
  }

  ModelCounters Counters;

private:
  struct Bare {
    std::unique_ptr<SpaptBenchmark> Bench;
    std::unique_ptr<TracedModel> Model;
    std::unique_ptr<ActiveLearner> Learner;
    const Dataset *Data = nullptr;
    uint32_t TraceId = 0;
  };
  std::map<std::string, Dataset> Datasets;
  std::vector<Bare> Learners;
  const size_t TestSubset = ExperimentScale::fromEnv().TestSubset;
  bool Traced;
};

/// serve-mem writes no snapshots, so the traced replay measures the
/// snapshot and restore layers itself: every DurableEvery-th group of
/// sessions also runs through the wire on an engine with a state dir,
/// which snapshots after every observe (the shipped cadence), and
/// restoreSessions reads back the state those sessions leave at their
/// halfway round.  A quarter of the groups bounds the fsync time.
constexpr size_t DurableEvery = 4;

/// Write syscalls and bytes of this process so far (/proc/self/io).
struct WriteCounters {
  double Calls = 0, Bytes = 0;
};

WriteCounters writeCounters() {
  std::ifstream In("/proc/self/io");
  WriteCounters C;
  std::string Key;
  double Value = 0;
  while (In >> Key >> Value) {
    if (Key == "syscw:")
      C.Calls = Value;
    else if (Key == "wchar:")
      C.Bytes = Value;
  }
  return C;
}

/// Drives sessions \p Which through their first half on an engine with a
/// state dir in \p Dir, then drops the engine as a SIGKILL would: the
/// snapshots stay.  Returns the replies that differ from the recording.
size_t writeHalfwayState(const std::vector<SessionStream> &Sessions,
                         const std::vector<size_t> &Which,
                         const std::string &Dir) {
  ServeOptions Opts;
  Opts.StateDir = Dir;
  Opts.DatasetCacheDir = Dir + "/datasets";
  ServeEngine Engine(Opts);
  std::string Reply;
  size_t Mismatches = 0;
  auto check = [&](const Exchange &E) {
    handleRequestLine(Engine, E.Request, Reply);
    Mismatches += Reply != E.Reply;
  };
  for (size_t I : Which) {
    const SessionStream &S = Sessions[I];
    check(S.Open);
    for (size_t R = 0; R != S.Observes.size() / 2; ++R) {
      check(S.Suggests[R]);
      check(S.Observes[R]);
    }
  }
  return Mismatches;
}

int cmdServeTrace(const std::string &StreamPath, const std::string &WorkDir,
                  const std::string &SummaryPath,
                  const std::string &TracePath) {
  constexpr size_t GroupSize = 8;
  std::vector<SessionStream> Sessions = readStream(StreamPath);
  std::set<std::string> Benchmarks, DurableBenchmarks;
  std::vector<size_t> DurableSessions;
  for (size_t I = 0; I != Sessions.size(); ++I) {
    Benchmarks.insert(Sessions[I].Benchmark);
    if (I / GroupSize % DurableEvery == 0) {
      DurableSessions.push_back(I);
      DurableBenchmarks.insert(Sessions[I].Benchmark);
    }
  }
  const std::string HalfwayDir = WorkDir + "/halfway";
  size_t Mismatches = writeHalfwayState(Sessions, DurableSessions, HalfwayDir);

  Trace.Enabled = true;
  uint64_t Start = nowNs();
  for (const std::string &Name : Benchmarks) {
    SpanScope Sp("exp.dataset.build");
    smokeDataset(Name, "");
  }
  double BuildMs = msSince(Start);
  Start = nowNs();
  for (const std::string &Name : DurableBenchmarks) {
    SpanScope Sp("exp.dataset.load");
    smokeDataset(Name, HalfwayDir + "/datasets");
  }
  double LoadMs = msSince(Start);
  double RestoreMs = 0;
  {
    ServeOptions Opts;
    Opts.StateDir = HalfwayDir;
    Opts.DatasetCacheDir = HalfwayDir + "/datasets";
    ServeEngine Restore(Opts);
    size_t Skipped = 0, Restored = 0;
    Start = nowNs();
    {
      SpanScope Sp("serve.engine.restore");
      Restored = Restore.restoreSessions(&Skipped);
    }
    RestoreMs = msSince(Start);
    Trace.Enabled = false;
    Mismatches += Restored != DurableSessions.size() || Skipped != 0;
    // A restored session's next suggestion is the uninterrupted one.
    std::string Reply;
    for (size_t I : DurableSessions) {
      const SessionStream &S = Sessions[I];
      const Exchange &Next = S.Suggests[S.Observes.size() / 2];
      handleRequestLine(Restore, Next.Request, Reply);
      Mismatches += Reply != Next.Reply;
    }
  }

  // The wire pass without a state dir is serve-mem's own path and the
  // reference; the wire, snapshot and engine layers are differences
  // between passes.
  ServeOptions DurableOpts;
  DurableOpts.StateDir = WorkDir + "/durable";
  DurableOpts.DatasetCacheDir = DurableOpts.StateDir + "/datasets";
  WirePass Durable(DurableOpts);
  WirePass Wire{ServeOptions{}};
  EnginePass Engine;
  BarePass Bare(Sessions.size(), true), Untraced(Sessions.size(), false);
  const std::vector<ReplayPass *> Passes = {&Wire, &Engine, &Bare, &Untraced};

  for (ReplayPass *P : Passes) {
    Trace.Enabled = P->traced();
    Start = nowNs();
    for (size_t I = 0; I != Sessions.size(); ++I)
      P->open(I, Sessions[I]);
    P->OpenMs = msSince(Start);
  }
  Trace.Enabled = false;
  for (size_t I : DurableSessions)
    Durable.open(I, Sessions[I]);
  double WireOnDurableMs = 0;
  for (size_t First = 0; First < Sessions.size(); First += GroupSize) {
    size_t Group = First / GroupSize;
    size_t Last = std::min(Sessions.size(), First + GroupSize);
    size_t Rounds = 0;
    for (size_t I = First; I != Last; ++I)
      Rounds = std::max(Rounds, Sessions[I].Observes.size());
    std::vector<ReplayPass *> Order = Passes;
    if (Group % DurableEvery == 0)
      Order.push_back(&Durable);
    for (size_t K = 0; K != Order.size(); ++K) {
      ReplayPass &P = *Order[(K + Group) % Order.size()];
      Trace.Enabled = P.traced();
      WriteCounters Io = writeCounters();
      Start = nowNs();
      double StartCpu = cpuMs();
      for (size_t R = 0; R != Rounds; ++R)
        for (size_t I = First; I != Last; ++I)
          if (R < Sessions[I].Observes.size())
            P.roundTrip(I, Sessions[I], R);
      for (size_t I = First; I != Last; ++I)
        P.finish(I, Sessions[I]);
      double Ms = msSince(Start);
      P.TrafficMs += Ms;
      P.TrafficCpuMs += cpuMs() - StartCpu;
      WriteCounters IoEnd = writeCounters();
      P.WriteCalls += IoEnd.Calls - Io.Calls;
      P.WriteBytes += IoEnd.Bytes - Io.Bytes;
      if (&P == &Wire && Group % DurableEvery == 0)
        WireOnDurableMs += Ms;
      Trace.Enabled = false;
      for (size_t I = First; I != Last; ++I)
        P.verifyAndClose(I, Sessions[I]);
    }
  }
  for (ReplayPass *P : Passes)
    Mismatches += P->Mismatches;
  Mismatches += Durable.Mismatches;
  std::map<std::string, LayerTime> T = layerTimes();

  double WireMs = Wire.TrafficMs - Engine.TrafficMs;
  double SnapshotMs = Durable.TrafficMs - WireOnDurableMs;
  // Against the untraced bare pass, so span overhead stays out of the
  // engine and lands in the unattributed remainder.
  double EngineMs = Engine.TrafficMs - Untraced.TrafficMs;
  double OpenMs = std::max(0.0, Engine.OpenMs - BuildMs);
  Summary Out;
  Out.set("exp.dataset.build_ms", BuildMs);
  Out.set("exp.dataset.load_ms", LoadMs);
  Out.set("serve.engine.restore_ms", RestoreMs);
  Out.set("serve.wire.self_ms", WireMs);
  Out.set("serve.engine.snapshot_ms", SnapshotMs);
  Out.set("serve.snapshot.writes", Durable.WriteCalls);
  Out.set("serve.snapshot.bytes", Durable.WriteBytes);
  Out.set("serve.engine.self_ms", EngineMs);
  Out.set("serve.engine.open_ms", OpenMs);
  Out.set("core.suggest.self_ms", selfMs(T, "core.suggest"));
  Out.set("core.suggest.calls", double(callCount(T, "core.suggest")));
  Out.set("core.observe.self_ms", selfMs(T, "core.observe"));
  Out.set("core.observe.calls", double(callCount(T, "core.observe")));
  reportModel(Out, T, "dynatree", Bare.Counters);
  reportModel(Out, T, "gp", ModelCounters());
  // The wall is serve-mem's own work; the durable replay, the dataset
  // loads and the restore run beside it and stay outside.
  double Wall = BuildMs + Wire.OpenMs + Wire.TrafficMs;
  double Attributed = BuildMs + OpenMs + WireMs + EngineMs +
                      selfMs(T, "core.suggest") + selfMs(T, "core.observe") +
                      modelSelfMs(T);
  Out.set("trace.wall_ms", Wall);
  Out.set("trace.unattributed_ms", Wall - Attributed);
  Out.set("trace.overhead_pct",
          100.0 * (Bare.TrafficMs - Untraced.TrafficMs) / Untraced.TrafficMs);
  Out.set("trace.wire_traffic_cpu_ms", Wire.TrafficCpuMs);
  Out.set("replay.sessions", double(Sessions.size()));
  Out.set("replay.mismatches", double(Mismatches));
  Out.write(SummaryPath);
  writeChromeTrace(TracePath);
  return 0;
}

uint64_t parseU64(const char *Text) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (!*Text || *End)
    die(std::string("not a number: ") + Text);
  return V;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Cmd = Argc > 1 ? Argv[1] : "";
  if (Cmd == "datasets" && Argc == 4)
    return cmdDatasets(Argv[2], size_t(parseU64(Argv[3])));
  if (Cmd == "serve-record" && Argc == 6)
    return cmdServeRecord(Argv[2], parseU64(Argv[3]),
                          size_t(parseU64(Argv[4])),
                          unsigned(parseU64(Argv[5])));
  if (Cmd == "campaign-trace" && Argc == 7)
    return cmdCampaignTrace(Argv[2], Argv[3], Argv[4], Argv[5], Argv[6]);
  if (Cmd == "serve-trace" && Argc == 6)
    return cmdServeTrace(Argv[2], Argv[3], Argv[4], Argv[5]);
  std::fprintf(stderr,
               "usage: perfdriver datasets DIR REPS\n"
               "       perfdriver serve-record OUT SEED SESSIONS THREADS\n"
               "       perfdriver campaign-trace STATE_DIR BASELINE BUILD_DIR "
               "SUMMARY TRACE\n"
               "       perfdriver serve-trace STREAM WORK_DIR SUMMARY TRACE\n");
  return 2;
}
