//===- tests/scheduler_test.cpp - nested scheduler tests -------*- C++ -*-===//
//
// Pins the scheduler's two contracts:
//
//  * nesting is legal — a task running on a worker may fork-and-wait on
//    the same scheduler to any depth (the predecessor ThreadPool
//    deadlocked or serialized here), wait() helping instead of blocking;
//
//  * determinism by construction — shard grids and per-shard
//    counter-derived seeds are independent of worker count and steal
//    order, so campaign-shaped nested computations (DynaTree ensembles
//    inside scheduler tasks) are byte-identical across {0, 1, 2, 8}
//    workers under forced random steal interleavings (varied victim-
//    selection seeds plus pseudo-random worker yields).
//
//===----------------------------------------------------------------------===//

#include "dynatree/DynaTree.h"
#include "support/Rng.h"
#include "support/Scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

using namespace alic;

//===----------------------------------------------------------------------===//
// Nesting
//===----------------------------------------------------------------------===//

TEST(SchedulerNestingTest, TaskMayForkJoinOnItsOwnPool) {
  // The exact shape that deadlocked the fixed ThreadPool: a pool task
  // forking shards onto the same pool and joining them.
  for (unsigned Workers : {1u, 2u, 8u}) {
    Scheduler S(Workers);
    std::vector<std::atomic<int>> Hits(512);
    shardedFor(&S, 8, 1, [&](size_t Outer, size_t, size_t) {
      shardedFor(&S, 64, 7, [&](size_t, size_t Begin, size_t End) {
        for (size_t I = Begin; I != End; ++I)
          ++Hits[Outer * 64 + I];
      });
    });
    for (auto &H : Hits)
      EXPECT_EQ(H.load(), 1);
  }
}

TEST(SchedulerNestingTest, DeepRecursiveForkJoin) {
  // Fork-join recursion via TaskGroup: sum [0, N) by binary splitting,
  // every interior frame waiting on two children on the same scheduler.
  Scheduler S(2);
  std::function<uint64_t(uint64_t, uint64_t)> TreeSum =
      [&](uint64_t Lo, uint64_t Hi) -> uint64_t {
    if (Hi - Lo <= 8) {
      uint64_t Sum = 0;
      for (uint64_t I = Lo; I != Hi; ++I)
        Sum += I;
      return Sum;
    }
    uint64_t Mid = Lo + (Hi - Lo) / 2, Left = 0, Right = 0;
    TaskGroup Group(S);
    Group.run([&] { Left = TreeSum(Lo, Mid); });
    Group.run([&] { Right = TreeSum(Mid, Hi); });
    Group.wait();
    return Left + Right;
  };
  EXPECT_EQ(TreeSum(0, 4096), 4096ull * 4095 / 2);
}

TEST(SchedulerNestingTest, SingleWorkerNestedWaitHelps) {
  // With one worker, nested waits can only complete if wait() executes
  // child tasks itself; a blocking wait would deadlock (and hang this
  // test — CI's timeout is the detector).
  Scheduler S(1);
  std::atomic<int> Leaves{0};
  shardedFor(&S, 4, 1, [&](size_t, size_t, size_t) {
    shardedFor(&S, 4, 1, [&](size_t, size_t, size_t) {
      shardedFor(&S, 4, 1, [&](size_t, size_t, size_t) { ++Leaves; });
    });
  });
  EXPECT_EQ(Leaves.load(), 64);
}

TEST(SchedulerNestingTest, IdleWorkersStealInnerShards) {
  // Occupy one of two workers with a task that forks children and then
  // spins (without helping) until they all finish: only the other worker
  // can run them, so every child must be stolen.
  Scheduler S(2);
  std::atomic<int> Done{0};
  {
    TaskGroup Root(S);
    Root.run([&] {
      TaskGroup Group(S);
      for (int I = 0; I != 50; ++I)
        Group.run([&] { ++Done; });
      while (Done.load() != 50)
        std::this_thread::yield();
      Group.wait();
    });
    // Spin instead of joining right away: Root's wait() *helps*, and if
    // the main thread picked the root task up from the external queue,
    // the children would be externally queued too and need no stealing.
    while (Done.load() != 50)
      std::this_thread::yield();
  } // Root joins here
  EXPECT_EQ(Done.load(), 50);
  EXPECT_GE(S.stats().Steals, 50u);
  EXPECT_GE(S.stats().Executed, 51u);
}

TEST(SchedulerNestingTest, ExternalThreadsShareOnePool) {
  // Two non-worker threads drive the same scheduler concurrently with
  // nested loops; both joins help and neither interferes with the other.
  Scheduler S(2);
  std::vector<std::atomic<int>> Hits(256);
  auto Drive = [&](size_t Base) {
    shardedFor(&S, 16, 1, [&, Base](size_t Outer, size_t, size_t) {
      shardedFor(&S, 8, 1, [&, Base, Outer](size_t Inner, size_t, size_t) {
        ++Hits[Base + Outer * 8 + Inner];
      });
    });
  };
  std::thread A([&] { Drive(0); });
  std::thread B([&] { Drive(128); });
  A.join();
  B.join();
  for (auto &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(SchedulerNestingTest, ExternalThreadChurnLosesNoWakeup) {
  // Many short nested joins from more external threads than workers.
  // Each shard yields, so joiners often park while their last children
  // run elsewhere, and a lost wakeup in the park protocol hangs this test
  // (CI's timeout is the detector; dropping the group-completion notify
  // hung it in every trial).  Every index must run once and every forked
  // task count.
  constexpr size_t Threads = 4, Rounds = 2000, Outer = 2, Inner = 4;
  constexpr size_t PerRound = Outer * Inner;
  Scheduler S(2);
  std::vector<std::atomic<int>> Hits(Threads * Rounds * PerRound);
  std::vector<std::thread> Callers;
  for (size_t T = 0; T != Threads; ++T)
    Callers.emplace_back([&, T] {
      for (size_t Round = 0; Round != Rounds; ++Round) {
        size_t Base = (T * Rounds + Round) * PerRound;
        shardedFor(&S, Outer, 1, [&, Base](size_t O, size_t, size_t) {
          shardedFor(&S, Inner, 1, [&, Base, O](size_t I, size_t, size_t) {
            ++Hits[Base + O * Inner + I];
            std::this_thread::yield();
          });
        });
      }
    });
  for (std::thread &C : Callers)
    C.join();
  for (auto &H : Hits)
    ASSERT_EQ(H.load(), 1);
  EXPECT_EQ(S.stats().Executed, Threads * Rounds * (Outer + Outer * Inner));
}

//===----------------------------------------------------------------------===//
// Nested determinism stress (campaign-shaped)
//===----------------------------------------------------------------------===//

namespace {

/// A miniature campaign: three independent "cells", each a DynaTree
/// ensemble that seeds, absorbs a stream of updates, and reports
/// predictions plus ensemble statistics — with the model's internal
/// particle shards forked onto the *same* scheduler the cells run on.
/// Returns every double produced, in a fixed order.
std::vector<double> runNestedEnsembles(Scheduler *S) {
  constexpr size_t NumCells = 3;
  std::vector<std::vector<double>> PerCell(NumCells);
  auto Cell = [&](size_t CellIdx) {
    Rng R(hashCombine({0xce11ull, CellIdx}));
    std::vector<std::vector<double>> X;
    std::vector<double> Y;
    for (int I = 0; I != 150; ++I) {
      double A = R.nextUniform(-1, 1), B = R.nextUniform(-1, 1);
      X.push_back({A, B});
      Y.push_back(A * A - 0.5 * B + 0.1 * R.nextGaussian());
    }
    DynaTreeConfig C;
    C.NumParticles = 60;
    C.Seed = 29 + CellIdx;
    DynaTree M(C);
    M.setScheduler(S);
    M.fit({X.begin(), X.begin() + 40}, {Y.begin(), Y.begin() + 40});
    for (size_t I = 40; I != X.size(); ++I)
      M.update(X[I], Y[I]);

    std::vector<double> &Out = PerCell[CellIdx];
    for (double A = -0.8; A <= 0.9; A += 0.4)
      for (double B = -0.8; B <= 0.9; B += 0.4) {
        Prediction P = M.predict({A, B});
        Out.push_back(P.Mean);
        Out.push_back(P.Variance);
      }
    std::vector<double> Alc =
        M.alcScores({{0.3, -0.4}, {-0.6, 0.2}, {0.1, 0.8}},
                    {X.begin(), X.begin() + 30});
    Out.insert(Out.end(), Alc.begin(), Alc.end());
    Out.push_back(M.effectiveSampleSize());
    Out.push_back(M.averageLeafCount());
    Out.push_back(M.averageDepth());
  };
  // Cells are top-level tasks when a scheduler exists (the campaign
  // shape); inline otherwise (the reference).
  shardedFor(S, NumCells, 1, [&](size_t I, size_t, size_t) { Cell(I); });

  std::vector<double> All;
  for (const std::vector<double> &Cell : PerCell)
    All.insert(All.end(), Cell.begin(), Cell.end());
  return All;
}

/// Bitwise equality, not EXPECT_DOUBLE_EQ: the contract is stronger than
/// "close" — identical arithmetic in an identical order.
void expectBitIdentical(const std::vector<double> &Want,
                        const std::vector<double> &Got,
                        const std::string &Label) {
  ASSERT_EQ(Want.size(), Got.size()) << Label;
  for (size_t I = 0; I != Want.size(); ++I)
    EXPECT_EQ(std::memcmp(&Want[I], &Got[I], sizeof(double)), 0)
        << Label << " diverged at index " << I << ": " << Want[I] << " vs "
        << Got[I];
}

} // namespace

TEST(SchedulerDeterminismTest, NestedEnsemblesBitIdenticalAcrossWorkers) {
  std::vector<double> Reference = runNestedEnsembles(nullptr);
  ASSERT_FALSE(Reference.empty());
  for (unsigned Workers : {1u, 2u, 8u}) {
    Scheduler S(Workers);
    expectBitIdentical(Reference, runNestedEnsembles(&S),
                       std::to_string(Workers) + " workers");
  }
}

TEST(SchedulerDeterminismTest, ForcedStealInterleavingsChangeNothing) {
  // Vary the victim-selection stream and inject pseudo-random worker
  // yields: steal order and preemption points shift, results must not.
  std::vector<double> Reference = runNestedEnsembles(nullptr);
  for (uint64_t StealSeed : {1ull, 0xabcdull, 0x7777777ull}) {
    Scheduler::Options Opts;
    Opts.Threads = 4;
    Opts.StealSeed = StealSeed;
    Opts.JitterSeed = hashCombine({StealSeed, 0x11ffull});
    Scheduler S(Opts);
    expectBitIdentical(Reference, runNestedEnsembles(&S),
                       "steal seed " + std::to_string(StealSeed));
  }
}

//===----------------------------------------------------------------------===//
// Stats and lifecycle
//===----------------------------------------------------------------------===//

TEST(SchedulerStatsTest, ExecutedCountsEveryTask) {
  // Tasks the helping main thread runs count as much as the workers'.
  Scheduler S(3);
  {
    TaskGroup Group(S);
    for (int I = 0; I != 40; ++I)
      Group.run([] {});
  }
  EXPECT_EQ(S.stats().Executed, 40u);
  // A one-shard grid runs inline on the caller: nothing is forked.
  shardedFor(&S, 5, 8, [](size_t, size_t, size_t) {});
  EXPECT_EQ(S.stats().Executed, 40u);
}

TEST(SchedulerStatsTest, AutoThreadCountUsesHardwareConcurrency) {
  Scheduler S(0);
  EXPECT_EQ(S.numThreads(),
            std::max(1u, std::thread::hardware_concurrency()));
}
