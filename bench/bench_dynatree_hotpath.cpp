//===- bench/bench_dynatree_hotpath.cpp - dedup + packed-scan bench -------===//
//
// Measures the two DynaTree hot paths this repo's unique-run overhaul
// targets, at the paper's N = 5000 particles:
//
//  * SMC update throughput (reweight + resample + propagate per point),
//    where reweighting dedupes by unique run and the grow proposal scans
//    packed unit-stride columns reused across resampling aliases;
//
//  * candidate scoring (ALM and Cohn's ALC), where predict/almScores/
//    alcScores walk each unique (tree, pending) run once and accumulate
//    per particle.  The walk-dedup column is the ratio of per-particle
//    terms to walks performed (ScoreStats); tests/dynatree_test.cpp pins
//    the scores bitwise to a per-particle reference on both states.
//
// Scoring is measured on two states: the natural post-update ensemble,
// and a weight-concentrated state (a string of outlier observations
// collapses resampling onto few survivors) representative of the high
// duplicate fractions surprise observations produce in real campaigns.
//
// Emits BENCH_dynatree.json.  tools/check_bench.py gates the file for
// *presence* on every CI run; its metrics are wall-clock-derived
// (updates/s, scores/s) and therefore classified out of the default
// regression gate, like BENCH_sched.json's.  The duplicate-fraction,
// unique-run and walk-dedup columns are deterministic.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "dynatree/DynaTree.h"
#include "support/Rng.h"
#include "support/Scheduler.h"

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

using namespace alic;

namespace {

/// Deterministic synthetic regression surface in 6 dimensions (steppy +
/// heteroskedastic so posterior-predictive weights actually spread).
double truth(const std::vector<double> &Row) {
  return Row[0] * 2.0 + Row[1] * Row[1] - Row[2] +
         (Row[3] > 0.0 ? 1.5 : 0.0) + (Row[4] > 0.4 ? 2.0 : 0.0);
}

void makeData(size_t N, std::vector<std::vector<double>> &X,
              std::vector<double> &Y) {
  Rng R(2027);
  for (size_t I = 0; I != N; ++I) {
    std::vector<double> Row(6);
    for (double &V : Row)
      V = R.nextUniform(-1, 1);
    double Sigma = Row[5] > 0.3 ? 0.4 : 0.05;
    Y.push_back(truth(Row) + Sigma * R.nextGaussian());
    X.push_back(std::move(Row));
  }
}

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

struct UpdateRow {
  unsigned Threads = 0;
  double UpdatesPerSecond = 0.0;
  double DuplicateFraction = 0.0;
};

struct ScoringRow {
  const char *State = "";
  unsigned Threads = 0;
  double DuplicateFraction = 0.0;
  size_t UniqueRuns = 0;
  double AlmRate = 0.0, AlcRate = 0.0;
  double WalkDedupFactor = 0.0;
};

/// Times Fn over \p Reps repetitions and returns candidates scored per
/// second (first rep warm-started outside the clock at Reps > 1).
template <typename Fn>
double scoreRate(size_t Candidates, unsigned Reps, Fn &&F) {
  if (Reps > 1)
    F(); // warm caches; excluded from the clock
  auto Start = std::chrono::steady_clock::now();
  for (unsigned I = 0; I != Reps; ++I)
    F();
  return double(Candidates) * Reps / secondsSince(Start);
}

} // namespace

int main() {
  printScaleBanner("bench_dynatree_hotpath: unique-run dedup scoring + "
                   "packed grow scans at N = 5000");

  // The particle count stays at the paper's headline N = 5000 in every
  // scale; the scale only sizes the update stream and timing reps.
  constexpr unsigned Particles = 5000;
  size_t SeedPoints = 100, Updates = 150, NumCands = 500, NumRef = 100;
  unsigned Reps = 3;
  std::vector<unsigned> ThreadCounts;
  switch (getScaleKind()) {
  case ScaleKind::Smoke:
    Updates = 40;
    Reps = 1;
    ThreadCounts = {0, 2};
    break;
  case ScaleKind::Bench:
    ThreadCounts = {0, 2, 8};
    break;
  case ScaleKind::Paper:
    Updates = 400;
    Reps = 5;
    ThreadCounts = {0, 2, 4, 8};
    break;
  }

  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  makeData(SeedPoints + Updates, X, Y);

  FlatRows Cands, Ref;
  {
    Rng R(404);
    for (size_t I = 0; I != NumCands + NumRef; ++I) {
      std::vector<double> Row(6);
      for (double &V : Row)
        V = R.nextUniform(-1, 1);
      (I < NumCands ? Cands : Ref).push(Row);
    }
  }

  std::vector<UpdateRow> UpdateRows;
  std::vector<ScoringRow> ScoringRows;
  Table UpdOut({"threads", "upd/s", "dup-frac"});
  Table ScoreOut({"state", "threads", "dup-frac", "runs", "ALM/s", "ALC/s",
                  "walk-dedup"});

  for (unsigned Threads : ThreadCounts) {
    std::unique_ptr<Scheduler> Pool; // outlives the models wired to it
    if (Threads != 0)
      Pool = std::make_unique<Scheduler>(Threads);

    DynaTreeConfig C;
    C.NumParticles = Particles;
    C.Seed = 17;
    DynaTree M(C);
    if (Pool)
      M.setScheduler(Pool.get());
    M.fit({X.begin(), X.begin() + long(SeedPoints)},
          {Y.begin(), Y.begin() + long(SeedPoints)});

    auto Start = std::chrono::steady_clock::now();
    for (size_t I = SeedPoints; I != X.size(); ++I)
      M.update(X[I], Y[I]);
    double UpdSeconds = secondsSince(Start);

    UpdateRow U;
    U.Threads = Threads;
    U.UpdatesPerSecond = double(Updates) / UpdSeconds;
    U.DuplicateFraction = M.duplicateFraction();
    UpdateRows.push_back(U);
    UpdOut.addRow({std::to_string(Threads),
                   formatString("%.1f", U.UpdatesPerSecond),
                   formatString("%.3f", U.DuplicateFraction)});

    // The weight-concentrated state: one strongly surprising observation
    // makes the reweight collapse resampling onto the few particles that
    // explain it best, so post-resample aliasing — and with it the dedup
    // win — is at its campaign-time ceiling.  (The very next propagate
    // phase re-diversifies as aliases grow to isolate the surprise, so
    // the snapshot is taken immediately after the one update.)
    DynaTree Concentrated = M; // COW trees: a copy is cheap and safe
    Concentrated.update({0.9, 0.9, -0.9, 0.9, 0.9, -0.9}, 80.0);

    struct StateCase {
      const char *Name;
      DynaTree *Model;
    };
    StateCase Cases[] = {{"natural", &M}, {"concentrated", &Concentrated}};
    for (const StateCase &Case : Cases) {
      DynaTree &Model = *Case.Model;
      ScoreStats Stats;
      ScoreContext Ctx;
      Ctx.Pool = Pool.get();
      Ctx.Stats = &Stats;

      Model.almScores(Cands, Ctx);
      Model.alcScores(Cands, Ref, Ctx);

      ScoringRow Row;
      Row.State = Case.Name;
      Row.Threads = Threads;
      Row.DuplicateFraction = Model.duplicateFraction();
      Row.UniqueRuns = Model.uniqueRunCount();
      Row.WalkDedupFactor = Stats.dedupFactor();
      Row.AlmRate =
          scoreRate(NumCands, Reps, [&] { Model.almScores(Cands, Ctx); });
      Row.AlcRate =
          scoreRate(NumCands, Reps, [&] { Model.alcScores(Cands, Ref, Ctx); });
      ScoringRows.push_back(Row);
      ScoreOut.addRow({Row.State, std::to_string(Threads),
                       formatString("%.3f", Row.DuplicateFraction),
                       std::to_string(Row.UniqueRuns),
                       formatString("%.1f", Row.AlmRate),
                       formatString("%.1f", Row.AlcRate),
                       formatString("%.2f", Row.WalkDedupFactor)});
    }
  }

  std::printf("\nSMC update throughput (N=%u, %zu updates):\n", Particles,
              Updates);
  UpdOut.print();
  std::printf("\nScoring: unique-run dedup (%zu candidates, "
              "%zu reference points):\n",
              NumCands, NumRef);
  ScoreOut.print();

  std::FILE *Json = std::fopen("BENCH_dynatree.json", "w");
  if (Json) {
    std::fprintf(Json,
                 "{\n  \"schema\": \"alic-dynatree-hotpath-v1\",\n"
                 "  \"particles\": %u,\n  \"updates\": %zu,\n"
                 "  \"candidates\": %zu,\n  \"reference\": %zu,\n",
                 Particles, Updates, NumCands, NumRef);
    std::fprintf(Json, "  \"update\": [\n");
    for (size_t I = 0; I != UpdateRows.size(); ++I) {
      const UpdateRow &U = UpdateRows[I];
      std::fprintf(Json,
                   "    {\"threads\": %u, \"updates_per_second\": %.3f, "
                   "\"duplicate_fraction\": %.6f}%s\n",
                   U.Threads, U.UpdatesPerSecond, U.DuplicateFraction,
                   I + 1 == UpdateRows.size() ? "" : ",");
    }
    std::fprintf(Json, "  ],\n  \"scoring\": [\n");
    for (size_t I = 0; I != ScoringRows.size(); ++I) {
      const ScoringRow &R = ScoringRows[I];
      std::fprintf(
          Json,
          "    {\"state\": \"%s\", \"threads\": %u, "
          "\"duplicate_fraction\": %.6f, \"unique_runs\": %zu, "
          "\"alm_scores_per_second\": %.1f, "
          "\"alc_scores_per_second\": %.1f, "
          "\"walk_dedup_factor\": %.3f}%s\n",
          R.State, R.Threads, R.DuplicateFraction, R.UniqueRuns, R.AlmRate,
          R.AlcRate, R.WalkDedupFactor,
          I + 1 == ScoringRows.size() ? "" : ",");
    }
    std::fprintf(Json, "  ]\n}\n");
    std::fclose(Json);
    std::printf("written: BENCH_dynatree.json\n");
  }
  return 0;
}
