//===- bench/bench_serve.cpp - serve-engine throughput --------------------===//
//
// Suggest/observe throughput of the session-multiplexed serve engine:
// thousands of concurrent tuning sessions (each its own learner and
// surrogate, all sharing one dataset and, optionally, one scheduler)
// driven round-robin through full suggest -> observe round trips.
//
// Rows:
//  * mem-<N>   — N in-memory sessions, no session logs, inline scoring;
//  * mt-1000   — 1000 sessions multiplexed onto one 4-worker scheduler;
//  * ckpt-1000 — 1000 sessions appending every observe to their logs,
//                plus the time to restore all of them into a fresh
//                engine, i.e. the daemon-restart path at scale.
//
// Emits BENCH_serve.json, which tools/check_bench.py gates for
// *presence* on every CI run; suggestions_per_second is wall-clock
// derived and therefore skipped by the gate's default classification
// (shared CI runners jitter by integer factors).  The round-trip and
// restore counts are deterministic.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "serve/ServeEngine.h"
#include "support/FailPoint.h"
#include "support/Rng.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <vector>

using namespace alic;

namespace {

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// A micro session: big enough to exercise the full explore -> refine
/// path, small enough that serving (not model math) dominates.  All
/// sessions share one dataset through the engine's cache.
SessionSpec microSpec(uint64_t Seed) {
  SessionSpec Spec;
  Spec.Benchmark = "gemver";
  Spec.Plan = SamplingPlan::sequential(64);
  Spec.Seed = Seed;
  Spec.Scale.NumConfigs = 240;
  Spec.Scale.MeanObservations = 3;
  Spec.Scale.NumInitial = 3;
  Spec.Scale.InitObservations = 3;
  Spec.Scale.MaxTrainingExamples = 16;
  Spec.Scale.CandidatesPerIteration = 8;
  Spec.Scale.ReferenceSetSize = 10;
  Spec.Scale.Particles = 16;
  Spec.Scale.TestSubset = 16;
  return Spec;
}

/// Deterministic stand-in for a client-side measurement (the bench
/// times serving, not profiling).
double syntheticCost(uint64_t SessionIndex, uint64_t Ticket, uint64_t Slot) {
  uint64_t State = hashCombine({SessionIndex, Ticket, Slot, 0xbe7c4ull});
  return 0.4 + double(splitMix64(State) >> 44) * 1e-6;
}

struct ServeRow {
  std::string State;      ///< identity label: mode + session count
  size_t Sessions = 0;
  unsigned Threads = 0;
  size_t RoundTrips = 0;  ///< completed suggest+observe exchanges
  double OpenWall = 0;    ///< seconds to open all sessions
  double ServeWall = 0;   ///< seconds for all round trips
  double Rate = 0;        ///< round trips per second
  size_t Restored = 0;    ///< sessions restored into a fresh engine
  double RestoreWall = 0; ///< seconds to restore them (0 = not measured)
};

/// Opens \p Sessions sessions and drives \p Rounds round-robin
/// suggest/observe rounds (first one is the explore phase).  With a
/// non-empty \p StateDir every observe appends to its session log, and
/// the row finishes by restoring the whole population into a fresh
/// engine.
ServeRow measureServe(const std::string &Label, size_t Sessions,
                      unsigned Threads, size_t Rounds,
                      const std::string &StateDir) {
  ServeOptions Opts;
  Opts.StateDir = StateDir;
  Opts.Threads = Threads;
  if (!StateDir.empty())
    std::filesystem::remove_all(StateDir);

  ServeRow Row;
  Row.State = Label;
  Row.Sessions = Sessions;
  Row.Threads = Threads;

  auto Engine = std::make_unique<ServeEngine>(Opts);
  std::string Err;
  auto OpenStart = std::chrono::steady_clock::now();
  for (size_t I = 0; I != Sessions; ++I)
    if (!Engine->openSession("s" + std::to_string(I), microSpec(1000 + I),
                             Err))
      fatalError("open s%zu failed: %s", I, Err.c_str());
  Row.OpenWall = secondsSince(OpenStart);

  auto ServeStart = std::chrono::steady_clock::now();
  for (size_t Round = 0; Round != Rounds; ++Round) {
    for (size_t I = 0; I != Sessions; ++I) {
      std::string Id = "s" + std::to_string(I);
      Suggestion S;
      if (!Engine->suggest(Id, S, Err))
        fatalError("suggest %s failed: %s", Id.c_str(), Err.c_str());
      if (S.Phase == SuggestPhase::Done)
        continue;
      std::vector<double> Costs;
      Costs.reserve(S.Configs.size() * S.ObservationsPerConfig);
      for (size_t Slot = 0;
           Slot != S.Configs.size() * S.ObservationsPerConfig; ++Slot)
        Costs.push_back(syntheticCost(I, S.Ticket, Slot));
      if (!Engine->observe(Id, S.Ticket, Costs, Err))
        fatalError("observe %s failed: %s", Id.c_str(), Err.c_str());
      ++Row.RoundTrips;
    }
  }
  Row.ServeWall = secondsSince(ServeStart);
  Row.Rate = Row.ServeWall > 0 ? double(Row.RoundTrips) / Row.ServeWall : 0;

  if (!StateDir.empty()) {
    Engine.reset(); // daemon dies; only the session logs survive
    ServeEngine Fresh(Opts);
    auto RestoreStart = std::chrono::steady_clock::now();
    size_t Skipped = 0;
    Row.Restored = Fresh.restoreSessions(&Skipped);
    Row.RestoreWall = secondsSince(RestoreStart);
    if (Row.Restored != Sessions || Skipped)
      fatalError("restore recovered %zu/%zu sessions (%zu skipped)",
                 Row.Restored, Sessions, Skipped);
    std::filesystem::remove_all(StateDir);
  }
  return Row;
}

/// Guards the failpoint contract that lets the sites live on hot paths:
/// a *disarmed* ALIC_FAILPOINT is one relaxed atomic load.  Times 100M
/// evaluations and fails the bench (nonzero exit) if the per-evaluation
/// cost rises above noise — 25 ns/op is ~10x the expected cost, loose
/// enough for shared CI runners, tight enough to catch an accidental
/// lock or map lookup on the disabled path.
double checkDisarmedFailpointOverhead() {
  constexpr size_t Evaluations = 100'000'000;
  constexpr double MaxNsPerOp = 25.0;
  size_t Fired = 0;
  auto Start = std::chrono::steady_clock::now();
  for (size_t I = 0; I != Evaluations; ++I)
    Fired += ALIC_FAILPOINT("bench.serve.disarmed").Fire;
  double NsPerOp = secondsSince(Start) * 1e9 / double(Evaluations);
  if (Fired != 0)
    fatalError("disarmed failpoint fired %zu time(s)", Fired);
  std::printf("failpoint check: %zuM disarmed evaluations, %.2f ns/op\n",
              Evaluations / 1000000, NsPerOp);
  if (NsPerOp > MaxNsPerOp)
    fatalError("disarmed failpoint costs %.2f ns/op (budget %.0f) — the "
               "disabled fast path regressed",
               NsPerOp, MaxNsPerOp);
  return NsPerOp;
}

} // namespace

int main() {
  printScaleBanner("bench_serve: session-multiplexed suggest/observe "
                   "throughput");

  double FailpointNs = checkDisarmedFailpointOverhead();

  // 1 explore + 5 refine exchanges per session.
  constexpr size_t Rounds = 6;
  std::vector<size_t> MemSessions = {1000, 4000};
  if (getScaleKind() != ScaleKind::Smoke)
    MemSessions.push_back(10000);

  std::vector<ServeRow> Rows;
  for (size_t Sessions : MemSessions)
    Rows.push_back(measureServe("mem-" + std::to_string(Sessions), Sessions,
                                0, Rounds, ""));
  Rows.push_back(measureServe("mt-1000", 1000, 4, Rounds, ""));
  Rows.push_back(
      measureServe("ckpt-1000", 1000, 0, Rounds, "serve-bench-state"));

  printBanner("round-robin suggest/observe round trips");
  Table T({"mode", "sessions", "threads", "round trips", "open (s)",
           "serve (s)", "suggestions/s", "restore (s)"});
  for (const ServeRow &Row : Rows)
    T.addRow({Row.State, std::to_string(Row.Sessions),
              std::to_string(Row.Threads), std::to_string(Row.RoundTrips),
              formatString("%.3f", Row.OpenWall),
              formatString("%.3f", Row.ServeWall),
              formatString("%.0f", Row.Rate),
              Row.RestoreWall > 0 ? formatString("%.3f", Row.RestoreWall)
                                  : std::string("-")});
  T.print();

  std::FILE *Json = std::fopen("BENCH_serve.json", "w");
  if (Json) {
    std::fprintf(Json, "{\n  \"schema\": \"alic-serve-v1\",\n");
    // Wall-clock derived, informational only (the gate skips it); the
    // hard budget is enforced above with a nonzero exit.
    std::fprintf(Json, "  \"failpoint_check_ns\": %.2f,\n", FailpointNs);
    std::fprintf(Json, "  \"rounds\": %zu,\n  \"rows\": [\n", Rounds);
    for (size_t I = 0; I != Rows.size(); ++I) {
      const ServeRow &Row = Rows[I];
      std::fprintf(Json,
                   "    {\"state\": \"%s\", \"threads\": %u, "
                   "\"sessions\": %zu, \"round_trips\": %zu, "
                   "\"restored\": %zu, \"open_wall\": %.4f, "
                   "\"serve_wall\": %.4f, \"restore_wall\": %.4f, "
                   "\"suggestions_per_second\": %.0f}%s\n",
                   Row.State.c_str(), Row.Threads, Row.Sessions,
                   Row.RoundTrips, Row.Restored, Row.OpenWall, Row.ServeWall,
                   Row.RestoreWall, Row.Rate,
                   I + 1 == Rows.size() ? "" : ",");
    }
    std::fprintf(Json, "  ]\n}\n");
    std::fclose(Json);
    std::printf("written: BENCH_serve.json\n");
  }

  std::printf(
      "reading: each round trip is one full suggest -> observe exchange "
      "(the first carries the whole explore batch).  mem rows measure the "
      "engine alone; mt-1000 multiplexes every session onto one shared "
      "worker pool; ckpt-1000 adds a log append per observe and then "
      "restores all sessions into a fresh engine, i.e. the daemon-restart "
      "path.\n");
  return 0;
}
