//===- tests/shardlease_test.cpp - range lease protocol tests -*- C++ -*-===//
//
// Pins the lease protocol of exp/ShardLease: a claim is an exclusive
// flock on the range's lease file, so a second claimant bounces off it
// until the holder releases, even within one process; concurrent
// claimants of one free range elect exactly one winner; a holder that
// dies frees its range at once, with no TTL; and the lease.acquire
// failpoint degrades to Error.  Runs under TSan in CI.
//
//===----------------------------------------------------------------------===//

#include "exp/ShardLease.h"
#include "support/FailPoint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace alic;

namespace {

std::string freshLeaseDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "alic_lease_" + Name;
  std::filesystem::remove_all(Dir);
  return Dir + "/leases";
}

} // namespace

//===----------------------------------------------------------------------===//
// Range splitting
//===----------------------------------------------------------------------===//

TEST(ShardRangeTest, SplitCoversEveryItemExactlyOnce) {
  for (size_t Items : {0u, 1u, 7u, 30u, 275u})
    for (size_t Target : {0u, 1u, 2u, 3u, 16u, 300u}) {
      std::vector<ShardRange> Split = splitRangesByCells(Items, Target);
      size_t Cap = std::max<size_t>(Target, 1); // a target of 0 means 1
      ASSERT_EQ(Split.size(), (Items + Cap - 1) / Cap)
          << Items << "/" << Target;
      size_t Next = 0;
      for (size_t I = 0; I != Split.size(); ++I) {
        // Numbered in order, contiguous, non-empty, at most the target.
        EXPECT_EQ(Split[I].Index, I);
        EXPECT_EQ(Split[I].Begin, Next);
        EXPECT_GT(Split[I].size(), 0u);
        EXPECT_LE(Split[I].size(), Cap);
        // Longer ranges first (with near-equal sizes below, this makes
        // the split, and so the cells each range-<I>.lease names, unique).
        if (I) {
          EXPECT_LE(Split[I].size(), Split[I - 1].size());
        }
        Next = Split[I].End;
      }
      EXPECT_EQ(Next, Items);
      // Near-equal: sizes differ by at most one.
      if (!Split.empty()) {
        EXPECT_LE(Split.front().size() - Split.back().size(), 1u);
      }
    }
}

TEST(ShardRangeTest, SplitIsDeterministic) {
  // Workers agree on boundaries without coordinating: equal inputs must
  // give equal splits.
  std::vector<ShardRange> A = splitRangesByCells(275, 16);
  std::vector<ShardRange> B = splitRangesByCells(275, 16);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Begin, B[I].Begin);
    EXPECT_EQ(A[I].End, B[I].End);
  }
}

//===----------------------------------------------------------------------===//
// Claiming
//===----------------------------------------------------------------------===//

TEST(ShardLeaseTest, ClaimExcludesASecondClaimantUntilReleased) {
  std::string Dir = freshLeaseDir("exclusive");
  ShardLease Leases(Dir);
  ASSERT_TRUE(Leases.init().ok());
  RangeLease Mine;
  ASSERT_EQ(Leases.tryClaim(0, Mine), ShardLease::Claim::Acquired);
  EXPECT_TRUE(Mine.held());

  // A second ShardLease in the same process opens its own descriptor,
  // and flock locks belong to the open file description: it bounces.
  ShardLease Rival(Dir);
  RangeLease Theirs;
  EXPECT_EQ(Rival.tryClaim(0, Theirs), ShardLease::Claim::Held);
  EXPECT_FALSE(Theirs.held());

  // Another range is free.  Releasing ours keeps the lease file, and the
  // rival can claim the range again.
  EXPECT_EQ(Rival.tryClaim(1, Theirs), ShardLease::Claim::Acquired);
  Mine.release();
  EXPECT_FALSE(Mine.held());
  EXPECT_TRUE(std::filesystem::exists(Leases.leasePath(0)));
  EXPECT_EQ(Rival.tryClaim(0, Theirs), ShardLease::Claim::Acquired);
  // Acquiring range 0 released the rival's range 1.
  EXPECT_EQ(Leases.tryClaim(1, Mine), ShardLease::Claim::Acquired);
}

TEST(ShardLeaseTest, ConcurrentClaimsOfOneFreeRangeElectOneWinner) {
  // Even rounds race for a range whose lease file does not exist yet, odd
  // rounds for range 0, whose file every earlier round left behind.
  std::string Dir = freshLeaseDir("race");
  ASSERT_TRUE(ShardLease(Dir).init().ok());
  constexpr int NumThreads = 8, NumRounds = 200;
  for (int Round = 0; Round != NumRounds; ++Round) {
    size_t Range = Round % 2 ? 0 : size_t(Round);
    std::atomic<int> Ready{0}, Winners{0}, Errors{0};
    std::vector<RangeLease> Held(NumThreads);
    std::vector<std::thread> Threads;
    for (int T = 0; T != NumThreads; ++T)
      Threads.emplace_back([&, T] {
        ShardLease Claimant(Dir);
        Ready.fetch_add(1);
        while (Ready.load() != NumThreads)
          std::this_thread::yield();
        switch (Claimant.tryClaim(Range, Held[T])) {
        case ShardLease::Claim::Acquired:
          Winners.fetch_add(1);
          break;
        case ShardLease::Claim::Held:
          break;
        case ShardLease::Claim::Error:
          Errors.fetch_add(1);
          break;
        }
      });
    for (std::thread &T : Threads)
      T.join();
    ASSERT_EQ(Winners.load(), 1) << "round " << Round;
    ASSERT_EQ(Errors.load(), 0) << "round " << Round;
  } // Held goes out of scope: the winner releases before the next round.
}

TEST(ShardLeaseTest, DeadHolderFreesItsRangeAtOnce) {
  ShardLease Leases(freshLeaseDir("dead-holder"));
  ASSERT_TRUE(Leases.init().ok());
  const std::string Path = Leases.leasePath(0); // built before fork()
  int Pipe[2];
  ASSERT_EQ(::pipe(Pipe), 0);
  pid_t Child = ::fork();
  ASSERT_GE(Child, 0);
  if (Child == 0) {
    // The holder: async-signal-safe calls only, then wait to be killed.
    ::close(Pipe[0]);
    int Fd = ::open(Path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
    char Locked = Fd >= 0 && ::flock(Fd, LOCK_EX | LOCK_NB) == 0 ? '1' : '0';
    if (::write(Pipe[1], &Locked, 1) != 1)
      ::_exit(1);
    for (;;)
      ::pause();
  }
  ::close(Pipe[1]);
  char Locked = 0;
  ssize_t Got = ::read(Pipe[0], &Locked, 1);
  ::close(Pipe[0]);
  RangeLease Lease;
  ShardLease::Claim WhileAlive = Leases.tryClaim(0, Lease);
  ::kill(Child, SIGKILL);
  int WaitStatus = 0;
  ASSERT_EQ(::waitpid(Child, &WaitStatus, 0), Child);
  ASSERT_EQ(Got, 1);
  ASSERT_EQ(Locked, '1') << "the child could not take the lock";
  EXPECT_EQ(WhileAlive, ShardLease::Claim::Held);
  EXPECT_TRUE(WIFSIGNALED(WaitStatus) && WTERMSIG(WaitStatus) == SIGKILL);
  // Reaped means its descriptors are closed: the range is free now, with
  // no sleep and no expiry.
  EXPECT_EQ(Leases.tryClaim(0, Lease), ShardLease::Claim::Acquired);
}

//===----------------------------------------------------------------------===//
// Fault injection
//===----------------------------------------------------------------------===//

TEST(ShardLeaseTest, AcquireFailpointDegradesToError) {
  ShardLease Leases(freshLeaseDir("fp-acquire"));
  ASSERT_TRUE(Leases.init().ok());

  FailSpec Spec;
  Spec.Nth = 1;
  Spec.Count = 1;
  ScopedFailPoint Armed("lease.acquire", Spec);
  RangeLease Lease;
  EXPECT_EQ(Leases.tryClaim(0, Lease), ShardLease::Claim::Error);
  EXPECT_FALSE(Lease.held());
  // The injected failure left nothing behind: the next claim succeeds.
  EXPECT_EQ(Leases.tryClaim(0, Lease), ShardLease::Claim::Acquired);
}
