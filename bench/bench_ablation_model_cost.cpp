//===- bench/bench_ablation_model_cost.cpp - GP vs dynatree ---*- C++ -*-===//
//
// The paper's Section 3.2 rationale, measured: Gaussian-process inference
// pays an O(n^3) refit, while a dynamic tree absorbs a new observation
// without one.  One sweep over the exact GP at n in {500, 2000, 8000}
// (8000 outside smoke scale): blocked factorize across worker counts
// (bit-identity asserted against the serial factor), fit/update/predict/
// ALC throughput, and the deterministic held-out RMSE and log marginal
// likelihood of each fit.  Beside the GP's per-observation update cost,
// each serial row times the update of a 300-particle dynamic tree fit to
// the same n points, so the two update costs read against one n.
// A learner-shaped row per n then scores a fixed 1000-point pool with
// pool ids after each of 16 one-point updates, against the same calls
// without ids (asserted bitwise equal), with the kernel evaluations and
// forward-solve terms each spends per candidate.
// Emits BENCH_gp.json; its wall-clock columns are classified out of
// tools/check_bench.py's default gate (shared CI runners), while the
// rmse columns are deterministic and gated.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "dynatree/DynaTree.h"
#include "gp/GaussianProcess.h"
#include "linalg/Cholesky.h"
#include "linalg/Matrix.h"
#include "support/Rng.h"
#include "support/Scheduler.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

using namespace alic;

namespace {

/// Deterministic synthetic regression data in D=6 dims.
void makeData(size_t N, std::vector<std::vector<double>> &X,
              std::vector<double> &Y) {
  Rng R(99);
  X.clear();
  Y.clear();
  for (size_t I = 0; I != N; ++I) {
    std::vector<double> Row(6);
    for (double &V : Row)
      V = R.nextUniform(-1, 1);
    double Val = Row[0] * 2.0 + Row[1] * Row[1] - Row[2] +
                 0.05 * R.nextGaussian();
    X.push_back(std::move(Row));
    Y.push_back(Val);
  }
}

GpConfig plainGpConfig() {
  GpConfig C;
  C.OptimizeHyperParams = false;
  C.Init.LengthScale = 1.0;
  C.Init.NoiseVariance = 1e-3;
  return C;
}

//===----------------------------------------------------------------------===//
// GP throughput sweep (BENCH_gp.json)
//===----------------------------------------------------------------------===//

struct FactorizeRow {
  size_t N = 0;
  unsigned Workers = 0;
  double FactorizeSeconds = 0.0;
  double FactorizeSpeedup = 1.0; ///< serial seconds / this row's seconds
};

struct GpRow {
  size_t N = 0;
  unsigned Workers = 0;
  double FitSeconds = 0.0;
  double AlcCandidatesPerSecond = 0.0;
  // Serial-path columns, measured on the Workers == 0 row only (the
  // extend update and predictBatch never fork).
  bool HasSerialColumns = false;
  double UpdateSeconds = 0.0;
  double PredictsPerSecond = 0.0;
  double DynaTreeUpdateSeconds = 0.0;
};

struct QualityRow {
  size_t N = 0;
  double Rmse = 0.0;
  double LogMl = 0.0;
};

/// The learner-shaped ALC row at one n: steady-state rates with and
/// without pool ids, and the work each spends per candidate (exact
/// counts, deterministic).
struct LoopRow {
  size_t N = 0;
  double PooledCandidatesPerSecond = 0.0;
  double FreshCandidatesPerSecond = 0.0;
  double PooledKernelEvals = 0.0; ///< per candidate
  double PooledSolveTerms = 0.0;
  double FreshKernelEvals = 0.0;
  double FreshSolveTerms = 0.0;
};

/// Scores ALC the way the active learner does: a fixed pool, warmed by
/// one untimed ALM pass over every id, then \p Rounds rounds that each
/// draw candidate and reference ids, score them with ids and again
/// without (the two must agree bitwise), and absorb the top candidate.
bool runLoopRow(size_t N, const FlatRows &Train,
                const std::vector<double> &TrainY, const FlatRows &Pool,
                const std::vector<double> &PoolY, size_t Rounds,
                size_t NumCands, size_t NumRef, LoopRow &Row) {
  GaussianProcess M(plainGpConfig());
  M.fit(Train, TrainY);
  std::vector<uint32_t> AllIds(Pool.size());
  for (size_t I = 0; I != AllIds.size(); ++I)
    AllIds[I] = uint32_t(I);
  ScoreContext Warm;
  Warm.CandidateIds = AllIds.data();
  M.almScores(Pool, Warm);

  Rng R(hashCombine({0x100bull, N}));
  ScoreStats Pooled, Fresh;
  double PooledSeconds = 0.0, FreshSeconds = 0.0;
  for (size_t K = 0; K != Rounds; ++K) {
    std::vector<uint32_t> CandIds, RefIds;
    FlatRows Cands, Ref;
    for (size_t Slot : R.sampleIndices(Pool.size(), NumCands)) {
      CandIds.push_back(uint32_t(Slot));
      Cands.push(Pool[Slot]);
    }
    for (size_t Slot : R.sampleIndices(Pool.size(), NumRef)) {
      RefIds.push_back(uint32_t(Slot));
      Ref.push(Pool[Slot]);
    }
    ScoreContext WithIds;
    WithIds.Stats = &Pooled;
    WithIds.CandidateIds = CandIds.data();
    WithIds.ReferenceIds = RefIds.data();
    ScoreContext NoIds;
    NoIds.Stats = &Fresh;

    std::vector<double> Got, Want;
    PooledSeconds +=
        timeReps(1, [&] { Got = M.alcScores(Cands, Ref, WithIds); });
    FreshSeconds +=
        timeReps(1, [&] { Want = M.alcScores(Cands, Ref, NoIds); });
    if (Got != Want) {
      std::fprintf(stderr,
                   "FATAL: ALC with pool ids diverged from ALC without at "
                   "n=%zu round %zu\n",
                   N, K);
      return false;
    }
    size_t Best = size_t(std::max_element(Got.begin(), Got.end()) -
                         Got.begin());
    M.update(Cands[Best], PoolY[CandIds[Best]]);
  }
  double Scored = double(Rounds * NumCands);
  Row.N = N;
  Row.PooledCandidatesPerSecond = Scored / PooledSeconds;
  Row.FreshCandidatesPerSecond = Scored / FreshSeconds;
  Row.PooledKernelEvals = double(Pooled.KernelEvals.load()) / Scored;
  Row.PooledSolveTerms = double(Pooled.SolveTerms.load()) / Scored;
  Row.FreshKernelEvals = double(Fresh.KernelEvals.load()) / Scored;
  Row.FreshSolveTerms = double(Fresh.SolveTerms.load()) / Scored;
  return true;
}

/// Blocked-factorize sweep: one SPD matrix per n (low-rank + dominant
/// diagonal, deterministic), factored serially and across worker counts.
/// The parallel factors are asserted bit-identical to the serial one —
/// the speedup column isolates pure scheduling gains.
bool runFactorizeSweep(const std::vector<size_t> &Sizes,
                       const std::vector<unsigned> &WorkerCounts,
                       unsigned Reps, std::vector<FactorizeRow> &Rows) {
  Table Out({"n", "workers", "seconds", "speedup"});
  for (size_t N : Sizes) {
    Rng R(hashCombine({0xfac7ull, N}));
    std::vector<std::vector<double>> B;
    for (size_t I = 0; I != N; ++I) {
      std::vector<double> Row(8);
      for (double &V : Row)
        V = R.nextUniform(-1, 1);
      B.push_back(std::move(Row));
    }
    Matrix A(N, N, 0.0);
    for (size_t I = 0; I != N; ++I)
      for (size_t J = 0; J <= I; ++J) {
        double Sum = 0.0;
        for (size_t K = 0; K != 8; ++K)
          Sum += B[I][K] * B[J][K];
        if (I == J)
          Sum += 8.0 + 1e-3 * double(I);
        A.at(I, J) = Sum;
        A.at(J, I) = Sum;
      }

    double SerialSeconds = 0.0;
    std::vector<double> SerialPacked;
    for (unsigned Workers : WorkerCounts) {
      std::unique_ptr<Scheduler> Pool;
      if (Workers != 0)
        Pool = std::make_unique<Scheduler>(Workers);
      std::optional<Cholesky> F;
      double Seconds =
          timeReps(Reps, [&] { F = Cholesky::factorize(A, Pool.get()); });
      if (!F) {
        std::fprintf(stderr, "FATAL: factorize failed at n=%zu\n", N);
        return false;
      }
      if (Workers == 0) {
        SerialSeconds = Seconds;
        SerialPacked = F->packed();
      } else if (F->packed() != SerialPacked) {
        std::fprintf(stderr,
                     "FATAL: blocked factorize diverged from serial at "
                     "n=%zu workers=%u\n",
                     N, Workers);
        return false;
      }
      FactorizeRow Row;
      Row.N = N;
      Row.Workers = Workers;
      Row.FactorizeSeconds = Seconds;
      Row.FactorizeSpeedup = SerialSeconds / Seconds;
      Rows.push_back(Row);
      Out.addRow({std::to_string(N), std::to_string(Workers),
                  formatString("%.4f", Seconds),
                  formatString("%.2fx", Row.FactorizeSpeedup)});
    }
  }
  std::printf("\nBlocked Cholesky factorize (bit-identical across "
              "workers):\n");
  Out.print();
  return true;
}

} // namespace

int main() {
  printScaleBanner("bench_ablation_model_cost: GP throughput sweep");

  // Smoke keeps the O(n^3) fit off the n=8000 point so CI stays inside
  // its budget.
  std::vector<size_t> Sizes = {500, 2000};
  unsigned Reps = 1;
  if (getScaleKind() != ScaleKind::Smoke)
    Sizes.push_back(8000);
  if (getScaleKind() == ScaleKind::Paper)
    Reps = 3;
  const std::vector<unsigned> WorkerCounts = {0, 2, 4};
  constexpr size_t MaxN = 8000, NumUpdates = 16, NumProbes = 256,
                   NumCands = 200, NumRef = 50, NumHeld = 500,
                   NumPool = 1000, LoopRounds = 16;

  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  makeData(MaxN + NumUpdates + NumProbes + NumCands + NumRef + NumHeld +
               NumPool,
           X, Y);
  auto Tail = [&](size_t Skip, size_t Count) {
    return FlatRows(X.begin() + long(MaxN + Skip),
                    X.begin() + long(MaxN + Skip + Count));
  };
  FlatRows Probes = Tail(NumUpdates, NumProbes);
  FlatRows Cands = Tail(NumUpdates + NumProbes, NumCands);
  FlatRows Ref = Tail(NumUpdates + NumProbes + NumCands, NumRef);
  size_t HeldAt = NumUpdates + NumProbes + NumCands + NumRef;
  FlatRows Held = Tail(HeldAt, NumHeld);
  std::vector<double> HeldY(Y.begin() + long(MaxN + HeldAt),
                            Y.begin() + long(MaxN + HeldAt + NumHeld));
  FlatRows LoopPool = Tail(HeldAt + NumHeld, NumPool);
  std::vector<double> LoopPoolY(Y.begin() + long(MaxN + HeldAt + NumHeld),
                                Y.end());

  std::vector<FactorizeRow> FactorizeRows;
  if (!runFactorizeSweep(Sizes, WorkerCounts, Reps, FactorizeRows))
    return EXIT_FAILURE;

  std::vector<GpRow> GpRows;
  std::vector<QualityRow> QualityRows;
  std::vector<LoopRow> LoopRows;
  Table GpOut({"n", "workers", "fit s", "alc cand/s", "upd s", "pred/s",
               "tree upd s"});
  for (size_t N : Sizes) {
    FlatRows Train(X.begin(), X.begin() + long(N));
    std::vector<double> TrainY(Y.begin(), Y.begin() + long(N));
    std::vector<double> SerialAlc;
    for (unsigned Workers : WorkerCounts) {
      std::unique_ptr<Scheduler> Pool; // outlives the model wired to it
      if (Workers != 0)
        Pool = std::make_unique<Scheduler>(Workers);
      GaussianProcess M(plainGpConfig());
      if (Pool)
        M.setScheduler(Pool.get());

      GpRow Row;
      Row.N = N;
      Row.Workers = Workers;
      Row.FitSeconds = timeReps(Reps, [&] { M.fit(Train, TrainY); });

      std::vector<double> Alc = M.alcScores(Cands, Ref);
      if (Workers == 0)
        SerialAlc = Alc;
      else if (Alc != SerialAlc) {
        std::fprintf(stderr,
                     "FATAL: ALC diverged from the sequential path at n=%zu "
                     "workers=%u\n",
                     N, Workers);
        return EXIT_FAILURE;
      }
      Row.AlcCandidatesPerSecond =
          double(NumCands) /
          timeReps(Reps, [&] { M.alcScores(Cands, Ref); });

      if (Workers == 0) {
        Row.HasSerialColumns = true;
        std::vector<Prediction> Preds(NumProbes);
        Row.PredictsPerSecond =
            double(NumProbes) /
            timeReps(Reps, [&] {
              M.predictBatch(Probes, NumProbes, Preds.data());
            });

        // Deterministic quality of the pre-update fit.
        std::vector<Prediction> HeldPreds(NumHeld);
        M.predictBatch(Held, NumHeld, HeldPreds.data());
        double Sum2 = 0.0;
        for (size_t I = 0; I != NumHeld; ++I) {
          double E = HeldPreds[I].Mean - HeldY[I];
          Sum2 += E * E;
        }
        QualityRows.push_back({N, std::sqrt(Sum2 / double(NumHeld)),
                               M.logMarginalLikelihood()});

        // Amortized per-observation absorption: n -> n + NumUpdates.
        // Mutates the model, so it runs last.
        Row.UpdateSeconds =
            timeReps(1, [&] {
              for (size_t I = 0; I != NumUpdates; ++I)
                M.update(X[MaxN + I], Y[MaxN + I]);
            }) /
            double(NumUpdates);

        // The same absorption by a dynamic tree fit to the same n points.
        DynaTreeConfig TreeConfig;
        TreeConfig.NumParticles = 300;
        DynaTree Tree(TreeConfig);
        Tree.fit(Train, TrainY);
        Row.DynaTreeUpdateSeconds =
            timeReps(1, [&] {
              for (size_t I = 0; I != NumUpdates; ++I)
                Tree.update(X[MaxN + I], Y[MaxN + I]);
            }) /
            double(NumUpdates);
      }
      GpRows.push_back(Row);
      GpOut.addRow({std::to_string(N), std::to_string(Workers),
                    formatString("%.4f", Row.FitSeconds),
                    formatString("%.1f", Row.AlcCandidatesPerSecond),
                    Row.HasSerialColumns
                        ? formatString("%.5f", Row.UpdateSeconds)
                        : std::string("-"),
                    Row.HasSerialColumns
                        ? formatString("%.1f", Row.PredictsPerSecond)
                        : std::string("-"),
                    Row.HasSerialColumns
                        ? formatString("%.5f", Row.DynaTreeUpdateSeconds)
                        : std::string("-")});
    }
    LoopRows.emplace_back();
    if (!runLoopRow(N, Train, TrainY, LoopPool, LoopPoolY, LoopRounds,
                    NumCands, NumRef, LoopRows.back()))
      return EXIT_FAILURE;
  }
  std::printf("\nGP throughput (%zu ALC candidates x %zu reference, "
              "%zu-probe predict blocks; tree = 300-particle dynamic "
              "tree):\n",
              NumCands, NumRef, NumProbes);
  GpOut.print();

  Table LoopOut({"n", "ids cand/s", "no-ids cand/s", "ratio",
                 "kernel/cand", "solve terms/cand", "no-ids solve/cand"});
  for (const LoopRow &L : LoopRows)
    LoopOut.addRow(
        {std::to_string(L.N), formatString("%.1f", L.PooledCandidatesPerSecond),
         formatString("%.1f", L.FreshCandidatesPerSecond),
         formatString("%.1fx", L.PooledCandidatesPerSecond /
                                   L.FreshCandidatesPerSecond),
         formatString("%.2f", L.PooledKernelEvals),
         formatString("%.1f", L.PooledSolveTerms),
         formatString("%.1f", L.FreshSolveTerms)});
  std::printf("\nLearner-shaped ALC (%zu-point pool warmed once, %zu rounds "
              "of %zu candidates x %zu reference, one update each; scores "
              "with ids == without, bitwise):\n",
              NumPool, LoopRounds, NumCands, NumRef);
  LoopOut.print();

  Table QualOut({"n", "rmse", "logml"});
  for (const QualityRow &Q : QualityRows)
    QualOut.addRow({std::to_string(Q.N), formatString("%.4f", Q.Rmse),
                    formatString("%.1f", Q.LogMl)});
  std::printf("\nFit quality (held-out RMSE over %zu points, "
              "deterministic):\n",
              NumHeld);
  QualOut.print();

  std::FILE *Json = std::fopen("BENCH_gp.json", "w");
  if (Json) {
    std::fprintf(Json,
                 "{\n  \"schema\": \"alic-gp-throughput-v1\",\n"
                 "  \"alc_candidates\": %zu,\n  \"alc_reference\": %zu,\n"
                 "  \"predict_probes\": %zu,\n  \"updates\": %zu,\n"
                 "  \"heldout\": %zu,\n  \"loop_pool\": %zu,\n"
                 "  \"loop_rounds\": %zu,\n",
                 NumCands, NumRef, NumProbes, NumUpdates, NumHeld, NumPool,
                 LoopRounds);
    std::fprintf(Json, "  \"factorize\": [\n");
    for (size_t I = 0; I != FactorizeRows.size(); ++I) {
      const FactorizeRow &F = FactorizeRows[I];
      std::fprintf(Json,
                   "    {\"n\": %zu, \"workers\": %u, "
                   "\"factorize_seconds\": %.6f, "
                   "\"factorize_speedup\": %.3f}%s\n",
                   F.N, F.Workers, F.FactorizeSeconds, F.FactorizeSpeedup,
                   I + 1 == FactorizeRows.size() ? "" : ",");
    }
    std::fprintf(Json, "  ],\n  \"gp\": [\n");
    for (size_t I = 0; I != GpRows.size(); ++I) {
      const GpRow &R = GpRows[I];
      std::fprintf(Json,
                   "    {\"n\": %zu, \"workers\": %u, "
                   "\"fit_seconds\": %.6f, "
                   "\"alc_candidates_per_second\": %.1f",
                   R.N, R.Workers, R.FitSeconds, R.AlcCandidatesPerSecond);
      if (R.HasSerialColumns)
        std::fprintf(Json,
                     ", \"update_seconds\": %.6f, "
                     "\"predicts_per_second\": %.1f, "
                     "\"dynatree_update_seconds\": %.6f",
                     R.UpdateSeconds, R.PredictsPerSecond,
                     R.DynaTreeUpdateSeconds);
      std::fprintf(Json, "}%s\n", I + 1 == GpRows.size() ? "" : ",");
    }
    std::fprintf(Json, "  ],\n  \"quality\": [\n");
    for (size_t I = 0; I != QualityRows.size(); ++I) {
      const QualityRow &Q = QualityRows[I];
      std::fprintf(Json,
                   "    {\"n\": %zu, \"exact_rmse\": %.6f, "
                   "\"exact_logml\": %.4f}%s\n",
                   Q.N, Q.Rmse, Q.LogMl,
                   I + 1 == QualityRows.size() ? "" : ",");
    }
    std::fprintf(Json, "  ],\n  \"gp_loop\": [\n");
    for (size_t I = 0; I != LoopRows.size(); ++I) {
      const LoopRow &L = LoopRows[I];
      std::fprintf(Json,
                   "    {\"n\": %zu, "
                   "\"pooled_alc_candidates_per_second\": %.1f, "
                   "\"fresh_alc_candidates_per_second\": %.1f, "
                   "\"pooled_kernel_evals_per_candidate\": %.4f, "
                   "\"pooled_solve_terms_per_candidate\": %.4f, "
                   "\"fresh_kernel_evals_per_candidate\": %.4f, "
                   "\"fresh_solve_terms_per_candidate\": %.4f}%s\n",
                   L.N, L.PooledCandidatesPerSecond,
                   L.FreshCandidatesPerSecond, L.PooledKernelEvals,
                   L.PooledSolveTerms, L.FreshKernelEvals, L.FreshSolveTerms,
                   I + 1 == LoopRows.size() ? "" : ",");
    }
    std::fprintf(Json, "  ]\n}\n");
    std::fclose(Json);
    std::printf("written: BENCH_gp.json\n");
  }
  return EXIT_SUCCESS;
}

