//===- bench/bench_dynatree_hotpath.cpp - DynaTree update + scoring -------===//
//
// Measures the DynaTree hot paths on one synthetic data stream:
//
//  * SMC update throughput (reweight + resample + propagate per point)
//    over ensemble size N (the paper's Section 4.4 runs N = 5000) and
//    update thread count, with the ensemble's ESS, mean leaves and depth
//    and its held-out probe RMSE.  Reweighting dedupes by unique run and
//    the grow proposal scores its four tries in one vector pass over the
//    leaf.  Thread rows are bit-identical to serial ones —
//    every particle draws from its own (seed, step, index) RNG stream on
//    a fixed shard grid — so they isolate pure speedup;
//
//  * candidate scoring (predictBatch, ALM and Cohn's ALC) at N = 5000,
//    where each row is walked once per split lineage — trees that share
//    every split since their last grow or prune — tree-major, and each
//    unique (tree, pending) run adds its leaf terms per particle.  The
//    walk-dedup column is the ratio of per-particle terms to walks
//    performed (ScoreStats), so it grows with particles per lineage;
//    tests/dynatree_test.cpp pins the scores bitwise to a per-particle
//    reference on both states.
//
// Scoring runs on two states of each N = 5000 model the update sweep
// leaves: the natural post-update ensemble, and a weight-concentrated
// state (a string of outlier observations collapses resampling onto few
// survivors) representative of the high duplicate fractions surprise
// observations produce in real campaigns.
//
// A long run then grows an N = 5000 ensemble to n = 400 observations at
// every scale and takes the census of its distinct trees: live and dead
// nodes and point chunks, and the bytes their arenas hold.  Trees compact
// on every grow and prune, so the dead counts read 0.
//
// Emits BENCH_dynatree.json.  tools/check_bench.py gates the update rows'
// probe RMSE, which is deterministic, and fails any dead_* census count
// above its baseline; the rates (updates/s, predicts/s, scores/s) are
// wall clock and classified out of the default gate, like
// BENCH_sched.json's.  The duplicate-fraction, ESS, leaves, depth,
// unique-run, walk-dedup and live-census columns are deterministic
// functions of the seeded stream, and the gate fails any difference in
// them, up or down.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "dynatree/DynaTree.h"
#include "support/Rng.h"
#include "support/Scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

using namespace alic;

namespace {

/// Deterministic synthetic regression surface in 6 dimensions (steppy +
/// heteroskedastic so posterior-predictive weights actually spread).
double truth(RowRef Row) {
  return Row[0] * 2.0 + Row[1] * Row[1] - Row[2] +
         (Row[3] > 0.0 ? 1.5 : 0.0) + (Row[4] > 0.4 ? 2.0 : 0.0);
}

/// \p N uniform rows of [-1, 1]^6 drawn from \p R.
FlatRows uniformRows(Rng &R, size_t N) {
  FlatRows Rows;
  for (size_t I = 0; I != N; ++I) {
    std::vector<double> Row(6);
    for (double &V : Row)
      V = R.nextUniform(-1, 1);
    Rows.push(Row);
  }
  return Rows;
}

/// Ensemble size whose models seed the scoring states and the census.
constexpr unsigned ScoringParticles = 5000;

/// Observations the census ensemble is grown to, at every scale.
constexpr size_t LongRunN = 400;

struct UpdateRow {
  unsigned Particles = 0;
  unsigned Threads = 0;
  double UpdatesPerSecond = 0.0;
  double DuplicateFraction = 0.0;
  double Ess = 0.0;
  double AvgLeaves = 0.0;
  double AvgDepth = 0.0;
  double Rmse = 0.0;
};

struct ScoringRow {
  const char *State = "";
  unsigned Threads = 0;
  double DuplicateFraction = 0.0;
  size_t UniqueRuns = 0;
  double PredictRate = 0.0, AlmRate = 0.0, AlcRate = 0.0;
  double WalkDedupFactor = 0.0;
};

} // namespace

int main() {
  printScaleBanner("bench_dynatree_hotpath: SMC update sweep + lineage "
                   "walk scoring at N = 5000");

  // The scale sizes the update stream, the ensemble sizes and the timing
  // reps; every scale keeps the paper's N = 5000 for the scoring states.
  size_t SeedPoints = 100, Updates = 150, NumCands = 500, NumRef = 100,
         NumProbes = 200;
  unsigned Reps = 3;
  std::vector<unsigned> ParticleCounts, ThreadCounts;
  switch (getScaleKind()) {
  case ScaleKind::Smoke:
    Updates = 40;
    Reps = 1;
    ParticleCounts = {250, 1000, 5000};
    ThreadCounts = {0, 2};
    break;
  case ScaleKind::Bench:
    ParticleCounts = {500, 1000, 2500, 5000};
    ThreadCounts = {0, 2, 8};
    break;
  case ScaleKind::Paper:
    Updates = 400;
    Reps = 5;
    ParticleCounts = {1000, 2500, 5000, 10000};
    ThreadCounts = {0, 2, 4, 8};
    break;
  }

  FlatRows SeedX, X; // the fit batch, then the update stream
  std::vector<double> SeedY, Y;
  Rng DataRng(2027);
  auto drawPoint = [&DataRng](FlatRows &Rows, std::vector<double> &Ys) {
    std::vector<double> Row(6);
    for (double &V : Row)
      V = DataRng.nextUniform(-1, 1);
    double Sigma = Row[5] > 0.3 ? 0.4 : 0.05;
    Ys.push_back(truth(Row) + Sigma * DataRng.nextGaussian());
    Rows.push(Row);
  };
  for (size_t I = 0; I != SeedPoints + Updates; ++I)
    drawPoint(I < SeedPoints ? SeedX : X, I < SeedPoints ? SeedY : Y);
  // The long run's stream: the sweep's updates, then further draws.
  FlatRows LongX;
  std::vector<double> LongY;
  for (size_t I = 0; I != std::min(Updates, LongRunN - SeedPoints); ++I) {
    LongX.push(X[I]);
    LongY.push_back(Y[I]);
  }
  while (SeedPoints + LongY.size() < LongRunN)
    drawPoint(LongX, LongY);
  Rng CandRng(404), ProbeRng(7);
  FlatRows Cands = uniformRows(CandRng, NumCands);
  FlatRows Ref = uniformRows(CandRng, NumRef);
  FlatRows Probes = uniformRows(ProbeRng, NumProbes);
  std::vector<Prediction> Preds(std::max(NumCands, NumProbes));

  std::vector<UpdateRow> UpdateRows;
  std::vector<ScoringRow> ScoringRows;
  Table UpdOut({"particles", "threads", "upd/s", "dup-frac", "ESS", "leaves",
                "depth", "RMSE"});
  Table ScoreOut({"state", "threads", "dup-frac", "runs", "pred/s", "ALM/s",
                  "ALC/s", "walk-dedup"});

  for (unsigned Particles : ParticleCounts) {
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
      M.fit(SeedX, SeedY);
      double Seconds = timeReps(1, [&] {
        for (size_t I = 0; I != X.size(); ++I)
          M.update(X[I], Y[I]);
      });

      UpdateRow U;
      U.Particles = Particles;
      U.Threads = Threads;
      U.UpdatesPerSecond = double(Updates) / Seconds;
      U.DuplicateFraction = M.duplicateFraction();
      U.Ess = M.effectiveSampleSize();
      U.AvgLeaves = M.averageLeafCount();
      U.AvgDepth = M.averageDepth();
      M.predictBatch(Probes, NumProbes, Preds.data());
      double Se = 0.0;
      for (size_t I = 0; I != NumProbes; ++I) {
        double D = Preds[I].Mean - truth(Probes[I]);
        Se += D * D;
      }
      U.Rmse = std::sqrt(Se / double(NumProbes));
      UpdateRows.push_back(U);
      UpdOut.addRow({std::to_string(Particles), std::to_string(Threads),
                     formatString("%.1f", U.UpdatesPerSecond),
                     formatString("%.3f", U.DuplicateFraction),
                     formatString("%.1f", U.Ess),
                     formatString("%.2f", U.AvgLeaves),
                     formatString("%.2f", U.AvgDepth),
                     formatString("%.4f", U.Rmse)});
      if (Particles != ScoringParticles)
        continue;

      // The weight-concentrated state: one strongly surprising
      // observation makes the reweight collapse resampling onto the few
      // particles that explain it best, so post-resample aliasing — and
      // with it the dedup win — is at its campaign-time ceiling.  (The
      // very next propagate phase re-diversifies as aliases grow to
      // isolate the surprise, so the snapshot is taken immediately after
      // the one update.)
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
        ScoreContext Ctx; // scoring shards on the model's scheduler
        Ctx.Stats = &Stats;

        Model.almScores(Cands, Ctx);
        Model.alcScores(Cands, Ref, Ctx);

        ScoringRow Row;
        Row.State = Case.Name;
        Row.Threads = Threads;
        Row.DuplicateFraction = Model.duplicateFraction();
        Row.UniqueRuns = Model.uniqueRunCount();
        Row.WalkDedupFactor = Stats.dedupFactor();
        double Scored = double(NumCands);
        Row.PredictRate = Scored / timeReps(Reps, [&] {
                            Model.predictBatch(Cands, NumCands, Preds.data());
                          });
        Row.AlmRate =
            Scored / timeReps(Reps, [&] { Model.almScores(Cands, Ctx); });
        Row.AlcRate = Scored / timeReps(Reps, [&] {
                        Model.alcScores(Cands, Ref, Ctx);
                      });
        ScoringRows.push_back(Row);
        ScoreOut.addRow({Row.State, std::to_string(Threads),
                         formatString("%.3f", Row.DuplicateFraction),
                         std::to_string(Row.UniqueRuns),
                         formatString("%.1f", Row.PredictRate),
                         formatString("%.1f", Row.AlmRate),
                         formatString("%.1f", Row.AlcRate),
                         formatString("%.2f", Row.WalkDedupFactor)});
      }
    }
  }

  std::printf("\nSMC update sweep (%zu seed points, %zu updates, RMSE over "
              "%zu probes; thread rows bit-identical to serial):\n",
              SeedPoints, Updates, NumProbes);
  UpdOut.print();
  std::printf("\nScoring at N=%u: one walk per lineage (%zu candidates, "
              "%zu reference points):\n",
              ScoringParticles, NumCands, NumRef);
  ScoreOut.print();

  // The long run: tree storage once the ensemble has absorbed LongRunN
  // observations, on the sweep's largest pool.
  std::unique_ptr<Scheduler> LongPool;
  if (ThreadCounts.back() != 0)
    LongPool = std::make_unique<Scheduler>(ThreadCounts.back());
  DynaTreeConfig LongConfig;
  LongConfig.NumParticles = ScoringParticles;
  LongConfig.Seed = 17;
  DynaTree Long(LongConfig);
  Long.setScheduler(LongPool.get());
  Long.fit(SeedX, SeedY);
  double LongSeconds = timeReps(1, [&] {
    for (size_t I = 0; I != LongX.size(); ++I)
      Long.update(LongX[I], LongY[I]);
  });
  double LongRate = double(LongX.size()) / LongSeconds;
  DynaTree::TreeCensus Census = Long.treeCensus();
  double PerTree = 1.0 / double(Census.Trees);
  std::printf("\nTree census at N=%u, n=%zu (%u threads, %.1f upd/s), per "
              "distinct tree of %zu:\n",
              ScoringParticles, LongRunN, ThreadCounts.back(), LongRate,
              Census.Trees);
  Table CensusOut({"live nodes", "dead nodes", "live chunks", "dead chunks",
                   "KiB"});
  CensusOut.addRow({formatString("%.2f", double(Census.LiveNodes) * PerTree),
                    formatString("%.2f", double(Census.DeadNodes) * PerTree),
                    formatString("%.2f", double(Census.LiveChunks) * PerTree),
                    formatString("%.2f", double(Census.DeadChunks) * PerTree),
                    formatString("%.2f", double(Census.TreeBytes) * PerTree /
                                             1024.0)});
  CensusOut.print();

  std::FILE *Json = std::fopen("BENCH_dynatree.json", "w");
  if (Json) {
    std::fprintf(Json,
                 "{\n  \"schema\": \"alic-dynatree-hotpath-v3\",\n"
                 "  \"seed_points\": %zu,\n  \"updates\": %zu,\n"
                 "  \"probes\": %zu,\n  \"scoring_particles\": %u,\n"
                 "  \"candidates\": %zu,\n  \"reference\": %zu,\n",
                 SeedPoints, Updates, NumProbes, ScoringParticles, NumCands,
                 NumRef);
    std::fprintf(Json, "  \"update\": [\n");
    for (size_t I = 0; I != UpdateRows.size(); ++I) {
      const UpdateRow &U = UpdateRows[I];
      std::fprintf(Json,
                   "    {\"particles\": %u, \"threads\": %u, "
                   "\"updates_per_second\": %.3f, "
                   "\"duplicate_fraction\": %.6f, \"ess\": %.3f, "
                   "\"avg_leaves\": %.3f, \"avg_depth\": %.3f, "
                   "\"rmse\": %.6f}%s\n",
                   U.Particles, U.Threads, U.UpdatesPerSecond,
                   U.DuplicateFraction, U.Ess, U.AvgLeaves, U.AvgDepth,
                   U.Rmse, I + 1 == UpdateRows.size() ? "" : ",");
    }
    std::fprintf(Json, "  ],\n  \"scoring\": [\n");
    for (size_t I = 0; I != ScoringRows.size(); ++I) {
      const ScoringRow &R = ScoringRows[I];
      std::fprintf(
          Json,
          "    {\"state\": \"%s\", \"threads\": %u, "
          "\"duplicate_fraction\": %.6f, \"unique_runs\": %zu, "
          "\"predicts_per_second\": %.1f, "
          "\"alm_scores_per_second\": %.1f, "
          "\"alc_scores_per_second\": %.1f, "
          "\"walk_dedup_factor\": %.3f}%s\n",
          R.State, R.Threads, R.DuplicateFraction, R.UniqueRuns,
          R.PredictRate, R.AlmRate, R.AlcRate, R.WalkDedupFactor,
          I + 1 == ScoringRows.size() ? "" : ",");
    }
    std::fprintf(Json,
                 "  ],\n  \"census\": {\"particles\": %u, "
                 "\"observations\": %zu, \"threads\": %u, "
                 "\"updates_per_second\": %.3f, \"trees\": %zu, "
                 "\"live_nodes\": %zu, \"dead_nodes\": %zu, "
                 "\"live_chunks\": %zu, \"dead_chunks\": %zu, "
                 "\"tree_bytes\": %zu}\n}\n",
                 ScoringParticles, LongRunN, ThreadCounts.back(), LongRate,
                 Census.Trees, Census.LiveNodes, Census.DeadNodes,
                 Census.LiveChunks, Census.DeadChunks, Census.TreeBytes);
    std::fclose(Json);
    std::printf("written: BENCH_dynatree.json\n");
  }
  return 0;
}
