//===- bench/bench_ablation_model_cost.cpp - GP vs dynatree ---*- C++ -*-===//
//
// The paper's Section 3.2 rationale, measured: Gaussian-process inference
// refits at O(n^3) per new observation, while a dynamic tree absorbs a
// point in O(particles x depth) independent of n.  google-benchmark
// micro-benchmarks over growing training-set sizes.
//
// Two ablations of our own ride along: the GP's incremental rank-1
// Cholesky update (O(n^2)) against the paper's refit-per-observation
// cost, and sequential against thread-pool-sharded ALC candidate scoring.
//
// Before the google-benchmark suite, a custom GP throughput section
// sweeps the exact GP at n in {500, 2000, 8000} (8000 outside smoke
// scale): blocked factorize across worker counts (bit-identity asserted
// against the serial factor), fit/update/predict/ALC throughput, and the
// deterministic held-out RMSE and log marginal likelihood of each fit.
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

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
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

void BM_DynaTreeUpdate(benchmark::State &State) {
  size_t N = size_t(State.range(0));
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  makeData(N + 64, X, Y);
  DynaTreeConfig C;
  C.NumParticles = 300;
  DynaTree M(C);
  M.fit({X.begin(), X.begin() + long(N)}, {Y.begin(), Y.begin() + long(N)});
  size_t Next = N;
  for (auto _ : State) {
    M.update(X[Next % X.size()], Y[Next % Y.size()]);
    ++Next;
  }
  State.SetLabel("O(particles x depth), independent of n");
}

void BM_DynaTreeUpdateParticles(benchmark::State &State) {
  // The tentpole measurement: SMC update throughput of the rebuilt
  // particle engine at the paper's ensemble sizes.  Arg(0) = particles,
  // Arg(1) = update threads (0 = serial).  The parallel rows are
  // bit-identical to the serial ones — per-particle counter-derived RNG
  // streams on a fixed shard grid — so this isolates pure speedup.
  unsigned Particles = unsigned(State.range(0));
  unsigned Threads = unsigned(State.range(1));
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  makeData(640, X, Y);
  DynaTreeConfig C;
  C.NumParticles = Particles;
  std::unique_ptr<Scheduler> Pool; // outlives the model it is wired to
  DynaTree M(C);
  if (Threads != 0) {
    Pool = std::make_unique<Scheduler>(Threads);
    M.setScheduler(Pool.get());
  }
  M.fit({X.begin(), X.begin() + 400}, {Y.begin(), Y.begin() + 400});
  size_t Next = 400;
  for (auto _ : State) {
    M.update(X[Next % X.size()], Y[Next % Y.size()]);
    ++Next;
  }
  State.SetItemsProcessed(int64_t(State.iterations()));
  State.SetLabel(Threads == 0
                     ? "serial"
                     : "sharded over " + std::to_string(Threads) +
                           " threads (bit-identical)");
}

GpConfig plainGpConfig() {
  GpConfig C;
  C.OptimizeHyperParams = false;
  C.Init.LengthScale = 1.0;
  C.Init.NoiseVariance = 1e-3;
  return C;
}

void BM_GpRefitUpdate(benchmark::State &State) {
  size_t N = size_t(State.range(0));
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  makeData(N + 64, X, Y);
  GaussianProcess M(plainGpConfig());
  M.fit({X.begin(), X.begin() + long(N)}, {Y.begin(), Y.begin() + long(N)});
  for (auto _ : State) {
    M.refit(); // the O(n^3) solve a GP pays on every new observation
    benchmark::DoNotOptimize(M.logMarginalLikelihood());
  }
  State.SetLabel("O(n^3) refit per observation");
}

void BM_GpIncrementalUpdate(benchmark::State &State) {
  // One update() through the rank-1 Cholesky extension, always absorbing
  // the (n+1)-th point into an n-point model: the model is restored from
  // a pre-fitted copy outside the timed region so the measured cost
  // corresponds to the labelled n (unlike naive growth, which would let
  // the framework's iteration count inflate n).
  size_t N = size_t(State.range(0));
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  makeData(N + 64, X, Y);
  GaussianProcess Fitted(plainGpConfig());
  Fitted.fit({X.begin(), X.begin() + long(N)},
             {Y.begin(), Y.begin() + long(N)});
  for (auto _ : State) {
    State.PauseTiming();
    GaussianProcess M = Fitted;
    State.ResumeTiming();
    M.update(X[N], Y[N]);
    benchmark::DoNotOptimize(M.logMarginalLikelihood());
  }
  State.SetLabel("O(n^2) rank-1 Cholesky extension");
}

void BM_GpAlcScoring(benchmark::State &State) {
  // The active learner's per-iteration hot path: score nc candidates
  // against a reference sample.  Arg(0) = training-set size, Arg(1) =
  // scoring threads (0 = sequential).
  size_t N = size_t(State.range(0));
  unsigned Threads = unsigned(State.range(1));
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  makeData(N + 600, X, Y);
  GaussianProcess M(plainGpConfig());
  M.fit({X.begin(), X.begin() + long(N)}, {Y.begin(), Y.begin() + long(N)});
  std::vector<std::vector<double>> Cands(X.end() - 500, X.end());
  std::vector<std::vector<double>> Ref(X.end() - 600, X.end() - 500);
  std::unique_ptr<Scheduler> Pool;
  ScoreContext Ctx;
  if (Threads != 0) {
    Pool = std::make_unique<Scheduler>(Threads);
    Ctx.Pool = Pool.get();
  }
  for (auto _ : State)
    benchmark::DoNotOptimize(M.alcScores(Cands, Ref, Ctx).front());
  State.SetLabel(Threads == 0 ? "sequential"
                              : "sharded over " + std::to_string(Threads) +
                                    " threads (bit-identical)");
}

void BM_DynaTreePredict(benchmark::State &State) {
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  makeData(size_t(State.range(0)), X, Y);
  DynaTreeConfig C;
  C.NumParticles = 300;
  DynaTree M(C);
  M.fit(X, Y);
  std::vector<double> Probe = {0.1, -0.2, 0.3, 0.0, 0.5, -0.5};
  for (auto _ : State)
    benchmark::DoNotOptimize(M.predict(Probe).Mean);
}

void BM_DynaTreeAlcScoring(benchmark::State &State) {
  std::vector<std::vector<double>> X;
  std::vector<double> Y;
  makeData(400, X, Y);
  DynaTreeConfig C;
  C.NumParticles = 300;
  DynaTree M(C);
  M.fit(X, Y);
  size_t NumCands = size_t(State.range(0));
  std::vector<std::vector<double>> Cands(X.begin(),
                                         X.begin() + long(NumCands));
  std::vector<std::vector<double>> Ref(X.begin() + 100, X.begin() + 200);
  for (auto _ : State)
    benchmark::DoNotOptimize(M.alcScores(Cands, Ref).front());
  State.SetLabel("leaf-cached Cohn ALC");
}

//===----------------------------------------------------------------------===//
// GP throughput sweep (BENCH_gp.json)
//===----------------------------------------------------------------------===//

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

/// Times Fn over \p Reps repetitions and returns seconds per repetition
/// (first rep warm-started outside the clock at Reps > 1).
template <typename Fn> double timeReps(unsigned Reps, Fn &&F) {
  if (Reps > 1)
    F(); // warm caches; excluded from the clock
  auto Start = std::chrono::steady_clock::now();
  for (unsigned I = 0; I != Reps; ++I)
    F();
  return secondsSince(Start) / Reps;
}

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

    auto Start = std::chrono::steady_clock::now();
    std::vector<double> Got = M.alcScores(Cands, Ref, WithIds);
    PooledSeconds += secondsSince(Start);
    Start = std::chrono::steady_clock::now();
    std::vector<double> Want = M.alcScores(Cands, Ref, NoIds);
    FreshSeconds += secondsSince(Start);
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

int runGpThroughputSection() {
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
  Table GpOut({"n", "workers", "fit s", "alc cand/s", "upd s", "pred/s"});
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

      ScoreContext Ctx;
      Ctx.Pool = Pool.get();
      std::vector<double> Alc = M.alcScores(Cands, Ref, Ctx);
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
          timeReps(Reps, [&] { M.alcScores(Cands, Ref, Ctx); });

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
        auto Start = std::chrono::steady_clock::now();
        for (size_t I = 0; I != NumUpdates; ++I)
          M.update(X[MaxN + I], Y[MaxN + I]);
        Row.UpdateSeconds = secondsSince(Start) / double(NumUpdates);
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
                        : std::string("-")});
    }
    LoopRows.emplace_back();
    if (!runLoopRow(N, Train, TrainY, LoopPool, LoopPoolY, LoopRounds,
                    NumCands, NumRef, LoopRows.back()))
      return EXIT_FAILURE;
  }
  std::printf("\nGP throughput (%zu ALC candidates x %zu reference, "
              "%zu-probe predict blocks):\n",
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
                     "\"predicts_per_second\": %.1f",
                     R.UpdateSeconds, R.PredictsPerSecond);
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

} // namespace

BENCHMARK(BM_DynaTreeUpdate)->Arg(50)->Arg(100)->Arg(200)->Arg(400);
BENCHMARK(BM_DynaTreeUpdateParticles)
    ->Args({1000, 0})->Args({1000, 8})
    ->Args({5000, 0})->Args({5000, 2})->Args({5000, 4})->Args({5000, 8})
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_GpRefitUpdate)->Arg(50)->Arg(100)->Arg(200)->Arg(400)->Arg(500)
    ->Arg(800)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GpIncrementalUpdate)->Arg(50)->Arg(100)->Arg(200)->Arg(400)
    ->Arg(500)->Arg(800)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GpAlcScoring)
    ->Args({200, 0})->Args({200, 2})->Args({200, 4})
    ->Args({500, 0})->Args({500, 2})->Args({500, 4})
    ->UseRealTime()->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DynaTreePredict)->Arg(100)->Arg(400);
BENCHMARK(BM_DynaTreeAlcScoring)->Arg(50)->Arg(200);

// Custom main instead of BENCHMARK_MAIN(): the GP throughput sweep runs
// first (emitting BENCH_gp.json), then the google-benchmark suite with
// whatever --benchmark_* flags CI passed.
int main(int argc, char **argv) {
  if (runGpThroughputSection() != EXIT_SUCCESS)
    return EXIT_FAILURE;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return EXIT_FAILURE;
  benchmark::RunSpecifiedBenchmarks();
  return EXIT_SUCCESS;
}
