//===- examples/serve_session.cpp - Drive ServeEngine in-process -*- C++ -*-===//
//
// A full tuning session against the serve engine: open, then loop
// suggest -> measure -> observe until the learner completes, with a
// mid-session engine teardown and a restore from the session log along
// the way — exactly what a daemon restart does, minus the socket.
//
// The "measurement" here is the same virtual profiler the experiments
// use, standing in for a real compile-and-run.  Note who owns what: the
// *client* measures (and keeps its own cost ledger); the *engine* only
// selects and learns.  See docs/SERVE_PROTOCOL.md for the same exchange
// over the wire.
//
// Build & run:   cmake -B build -G Ninja && cmake --build build
//                ./build/examples/serve_session
//
//===----------------------------------------------------------------------===//

#include "measure/Profiler.h"
#include "serve/ServeEngine.h"
#include "spapt/Suite.h"

#include <cstdio>
#include <filesystem>
#include <memory>

using namespace alic;

namespace {

/// The session shape used throughout this example: one SPAPT benchmark,
/// the paper's sequential plan, and a miniature scale so the full
/// explore -> fit -> converge arc runs in a couple of seconds.
SessionSpec exampleSpec() {
  SessionSpec Spec;
  Spec.Benchmark = "mvt";
  Spec.Model = ModelKind::DynaTree;
  Spec.Scorer = ScorerKind::Alc;
  Spec.Plan = SamplingPlan::sequential(35);
  Spec.Seed = 7;
  Spec.Scale.NumConfigs = 400;
  Spec.Scale.MaxTrainingExamples = 40;
  Spec.Scale.CandidatesPerIteration = 30;
  Spec.Scale.ReferenceSetSize = 30;
  Spec.Scale.Particles = 50;
  Spec.Scale.TestSubset = 80;
  return Spec;
}

ServeOptions exampleOptions(const std::string &StateDir) {
  ServeOptions Opts;
  Opts.StateDir = StateDir;
  Opts.Threads = 2;
  return Opts;
}

} // namespace

int main() {
  const std::string StateDir = "alic-serve-example-state";
  std::filesystem::remove_all(StateDir);

  // The client's own measurement rig: in a real deployment this is your
  // compiler and your machine; here the calibrated virtual profiler.
  auto Bench = createSpaptBenchmark("mvt");
  Profiler Lab(*Bench, /*StreamSeed=*/0xc11e47);

  std::string Err;
  auto Engine = std::make_unique<ServeEngine>(exampleOptions(StateDir));
  if (!Engine->openSession("demo", exampleSpec(), Err)) {
    std::fprintf(stderr, "open failed: %s\n", Err.c_str());
    return 1;
  }

  size_t Rounds = 0;
  bool Restarted = false;
  while (true) {
    Suggestion S;
    if (!Engine->suggest("demo", S, Err)) {
      std::fprintf(stderr, "suggest failed: %s\n", Err.c_str());
      return 1;
    }
    if (S.Phase == SuggestPhase::Done)
      break;

    // Measure every suggested configuration the requested number of
    // times.  The explore-phase suggestion arrives before any model
    // exists: the engine serves the sampling plan's seed configs first.
    std::vector<double> Costs;
    for (const Config &C : S.Configs) {
      std::vector<double> Obs = Lab.measure(C, S.ObservationsPerConfig);
      Costs.insert(Costs.end(), Obs.begin(), Obs.end());
    }
    if (!Engine->observe("demo", S.Ticket, Costs, Err)) {
      std::fprintf(stderr, "observe failed: %s\n", Err.c_str());
      return 1;
    }
    ++Rounds;

    if (Rounds == 1)
      std::printf("explore: measured %zu seed configs (%u obs each)\n",
                  S.Configs.size(), S.ObservationsPerConfig);
    if (Rounds % 10 == 0) {
      double Rmse = 0.0;
      if (Engine->evaluate("demo", Rmse, Err))
        std::printf("round %3zu: model RMSE %.4f s, client spent %.0f "
                    "virtual s measuring\n",
                    Rounds, Rmse, Lab.ledger().totalSeconds());
    }

    // Mid-session "crash": throw the engine away and rebuild it from the
    // state directory.  The client keeps going as if nothing
    // happened — the restored session's next suggestion is byte-identical
    // to what the old engine would have sent (serve_test pins this).
    if (Rounds == 15 && !Restarted) {
      Engine.reset();
      Engine = std::make_unique<ServeEngine>(exampleOptions(StateDir));
      size_t Restored = Engine->restoreSessions();
      SessionInfo Info;
      Engine->sessionInfo("demo", Info, Err);
      std::printf("engine restarted: %zu session(s) restored, resumed at "
                  "iteration %zu\n",
                  Restored, Info.Stats.Iterations);
      Restarted = true;
    }
  }

  SessionInfo Info;
  double Rmse = 0.0;
  if (!Engine->sessionInfo("demo", Info, Err) ||
      !Engine->evaluate("demo", Rmse, Err)) {
    std::fprintf(stderr, "final query failed: %s\n", Err.c_str());
    return 1;
  }
  std::printf("session done after %zu rounds: %zu distinct configs "
              "(+%zu revisits), final RMSE %.4f s\n",
              Rounds, Info.Stats.DistinctExamples, Info.Stats.Revisits,
              Rmse);

  Engine->closeSession("demo");
  std::filesystem::remove_all(StateDir);
  return 0;
}
