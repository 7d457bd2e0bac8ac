//===- bench/bench_scheduler.cpp - nested scheduler benchmarks ------------===//
//
// Two measurements of the nested fork-join scheduler:
//
//  * nested fan-out throughput — tasks/second through an outer
//    shardedFor whose every task forks an inner shardedFor onto the same
//    pool, at 1, 2, and 4 workers;
//
//  * campaign tail latency — the motivating workload: complete the
//    275-cell smoke campaign except for a handful of straggler cells,
//    then time finishing that tail at 2 workers (cells nest their inner
//    shards onto the pool, so idle workers steal the stragglers' shards)
//    against the inline run with no scheduler at all.  The aggregate
//    ledger is byte-identical either way; only the wall clock moves.
//
// Emits BENCH_sched.json, which tools/check_bench.py gates for
// *presence* on every CI run; its metrics are all wall-clock-derived
// and therefore skipped by the gate's default classification (shared
// CI runners make tens-of-ms walls jitter by integer factors).
// Meaningful tail speedups (>1) need >= 2 real cores.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Rng.h"
#include "support/Scheduler.h"

#include <cstdio>
#include <filesystem>
#include <vector>

using namespace alic;

namespace {

/// ~1us of deterministic integer work per inner index.
uint64_t spinWork(uint64_t Seed) {
  uint64_t State = Seed;
  uint64_t Acc = 0;
  for (int I = 0; I != 60; ++I)
    Acc ^= splitMix64(State);
  return Acc;
}

struct FanoutRow {
  unsigned Workers;
  size_t Tasks;
  double Rate; ///< tasks per second through the nested fork-join
};

/// Outer x inner nested fan-out: every outer task forks inner shards
/// back onto the same scheduler.
FanoutRow measureFanout(unsigned Workers) {
  constexpr size_t Outer = 16, Inner = 256, ShardSize = 16, Rounds = 40;
  Scheduler S(Workers);
  std::vector<uint64_t> Sink(Outer * Inner);
  double Wall = timeReps(1, [&] {
    for (size_t Round = 0; Round != Rounds; ++Round)
      shardedFor(&S, Outer, 1, [&](size_t O, size_t, size_t) {
        shardedFor(&S, Inner, ShardSize,
                   [&](size_t, size_t Begin, size_t End) {
                     for (size_t I = Begin; I != End; ++I)
                       Sink[O * Inner + I] =
                           spinWork(Round * 1315423911ull + O * Inner + I);
                   });
      });
  });
  size_t InnerShards = (Inner + ShardSize - 1) / ShardSize;
  size_t Tasks = Rounds * (Outer + Outer * InnerShards);
  return {Workers, Tasks, double(Tasks) / Wall};
}

/// Copies a precomputed campaign state dir (ledger + dataset cache).
void copyStateDir(const std::string &From, const std::string &To) {
  std::filesystem::remove_all(To);
  std::filesystem::copy(From, To,
                        std::filesystem::copy_options::recursive);
}

} // namespace

int main() {
  printScaleBanner("bench_scheduler: nested fan-out throughput + campaign "
                   "tail latency");

  // --- Nested fan-out -----------------------------------------------------
  std::vector<FanoutRow> Fanout;
  for (unsigned Workers : {1u, 2u, 4u})
    Fanout.push_back(measureFanout(Workers));

  printBanner("nested fan-out (outer x inner shardedFor)");
  Table FanTable({"workers", "tasks", "tasks/s"});
  for (const FanoutRow &Row : Fanout)
    FanTable.addRow({std::to_string(Row.Workers), std::to_string(Row.Tasks),
                     formatString("%.0f", Row.Rate)});
  FanTable.print();

  // --- Campaign tail ------------------------------------------------------
  // Precompute the full smoke cross-product minus a shuffled 4-cell tail
  // once, then time completing the tail from identical copies of that
  // state: inline vs nested cells on TailWorkers workers.
  CampaignSpec Spec = benchCampaignSpec();
  Spec.Models = {ModelKind::DynaTree, ModelKind::Gp};
  Spec.Scorers = {ScorerKind::Alm, ScorerKind::Alc};
  Spec.Repetitions = 2;
  Spec.NoiseCells = true;
  size_t TotalCells = expandCells(Spec).size();
  constexpr size_t TailCells = 4;
  const unsigned TailWorkers = 2;

  std::string Master = "sched-tail-master";
  std::filesystem::remove_all(Master);
  {
    CampaignOptions Pre;
    Pre.StateDir = Master;
    Pre.Threads = TailWorkers;
    Pre.Quiet = true;
    // Shuffle so the held-out tail is a representative mix of cells, not
    // the (cheap) noise summaries that end the canonical spec order.
    Pre.ShuffleSeed = 0x7a11;
    Pre.MaxCells = TotalCells - TailCells;
    CampaignProgress Progress = runCampaignCells(Spec, Pre);
    if (Progress.AlreadyDone + Progress.NewlyRun !=
        TotalCells - TailCells)
      fatalError("tail precompute ran %zu cells, expected %zu",
                 Progress.AlreadyDone + Progress.NewlyRun,
                 TotalCells - TailCells);
    std::fprintf(stderr, "  precomputed %zu/%zu cells; timing the %zu-cell "
                 "tail at %u workers\n",
                 TotalCells - TailCells, TotalCells, TailCells, TailWorkers);
  }

  constexpr int Repeats = 3;
  double InlineWall = 1e300, NestedWall = 1e300;
  uint64_t NestedSteals = 0;
  for (int Rep = 0; Rep != Repeats; ++Rep) {
    for (bool Nested : {false, true}) {
      std::string Scratch = "sched-tail-scratch";
      copyStateDir(Master, Scratch);
      CampaignOptions Tail;
      Tail.StateDir = Scratch;
      Tail.Threads = Nested ? TailWorkers : 0;
      Tail.Quiet = true;
      CampaignProgress Progress;
      double Wall =
          timeReps(1, [&] { Progress = runCampaignCells(Spec, Tail); });
      if (!Progress.Complete)
        fatalError("tail run did not complete the campaign");
      if (Nested) {
        NestedWall = std::min(NestedWall, Wall);
        NestedSteals = std::max(NestedSteals, Progress.Steals);
      } else {
        InlineWall = std::min(InlineWall, Wall);
      }
      std::filesystem::remove_all(Scratch);
    }
  }
  std::filesystem::remove_all(Master);
  double TailSpeedup = NestedWall > 0.0 ? InlineWall / NestedWall : 0.0;

  printBanner("campaign tail (best of 3)");
  Table TailTable({"mode", "wall (s)", "speedup", "steals"});
  TailTable.addRow({"inline", formatString("%.3f", InlineWall), "1.00x",
                    "-"});
  TailTable.addRow({"nested cells", formatString("%.3f", NestedWall),
                    formatString("%.2fx", TailSpeedup),
                    std::to_string(NestedSteals)});
  TailTable.print();

  std::FILE *Json = std::fopen("BENCH_sched.json", "w");
  if (Json) {
    std::fprintf(Json, "{\n  \"schema\": \"alic-sched-v1\",\n");
    std::fprintf(Json, "  \"fanout\": [\n");
    for (size_t I = 0; I != Fanout.size(); ++I)
      std::fprintf(Json,
                   "    {\"workers\": %u, \"tasks\": %zu, "
                   "\"fanout_rate\": %.0f}%s\n",
                   Fanout[I].Workers, Fanout[I].Tasks, Fanout[I].Rate,
                   I + 1 == Fanout.size() ? "" : ",");
    std::fprintf(Json, "  ],\n");
    std::fprintf(Json,
                 "  \"tail\": {\"spec_cells\": %zu, \"tail_cells\": %zu, "
                 "\"workers\": %u, \"inline_wall\": %.4f, "
                 "\"nested_wall\": %.4f, \"tail_speedup\": %.4f, "
                 "\"nested_steals\": %llu}\n",
                 TotalCells, TailCells, TailWorkers, InlineWall, NestedWall,
                 TailSpeedup, (unsigned long long)NestedSteals);
    std::fprintf(Json, "}\n");
    std::fclose(Json);
    std::printf("written: BENCH_sched.json\n");
  }

  std::printf(
      "reading: the fan-out rows measure pure scheduler overhead under "
      "nesting; tail_speedup > 1 needs >= 2 real cores — with fewer cells "
      "than workers, nested cells let idle workers steal the stragglers' "
      "particle/scoring shards.\n");
  return 0;
}
