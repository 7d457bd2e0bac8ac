//===- support/Scheduler.h - Nested fork-join scheduler -------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fork-join scheduler that makes *nested* parallelism legal: one
/// worker pool serves every layer of the system, from campaign cells down
/// to DynaTree particle shards, GP kernel and Cholesky shards, and
/// scoring shards.
///
/// shardedFor is the one fork-join entry point.  It cuts [0, N) into a
/// fixed shard grid once; given a scheduler and more than one shard it
/// forks the shards through a TaskGroup and joins them, otherwise it runs
/// them inline in shard order.  A shard may call shardedFor again on the
/// same scheduler, from a worker or from any other thread, to any depth:
/// TaskGroup::wait() *helps* (runs pending tasks) instead of blocking, so
/// a join never consumes a worker.
///
/// The pool is one mutex and one condition variable.  Under the lock sit
/// one deque of tasks per worker (its owner pushes and pops the back,
/// thieves take the front) and an external queue for tasks forked by
/// non-worker threads.  The traffic needs nothing lock-free: a pass of
/// the 275-cell smoke campaign runs 94,153 tasks and steals at most a
/// few hundred of them.
///
/// Determinism contract (regression-tested): shard grids depend only on
/// (N, ShardSize), shards write disjoint outputs, and stochastic shard
/// work draws from per-shard counter-derived seeds.  Results are
/// therefore bit-identical at any worker count, under any steal
/// interleaving, and whether the scheduler exists at all
/// (shardedFor(nullptr, ...) runs inline).  Steal order is observable
/// only through stats().
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SUPPORT_SCHEDULER_H
#define ALIC_SUPPORT_SCHEDULER_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>

namespace alic {

class Scheduler;

/// Fork-join task group: run() forks children onto the scheduler, wait()
/// helps execute tasks until every child has finished.  Groups nest
/// freely (a child may create its own group on the same scheduler) and
/// may be created on worker and non-worker threads alike.  The
/// destructor waits, so a group can never outlive its children.
class TaskGroup {
public:
  explicit TaskGroup(Scheduler &S) : Sched(S) {}
  ~TaskGroup() { wait(); }

  TaskGroup(const TaskGroup &) = delete;
  TaskGroup &operator=(const TaskGroup &) = delete;

  /// Forks \p Fn as a child task.  When the caller is a worker (or a task
  /// running on one), the child lands on that worker's own deque; other
  /// threads submit through the external queue.
  void run(std::function<void()> Fn);

  /// Returns once every forked child has finished.  Never blocks a
  /// worker: the calling thread executes pending tasks (its own deque
  /// first, then this group's externally queued children, then steals)
  /// while it waits, and parks only when there is nothing it may run.
  /// Helping is scoped so a fine-grained join never starts an unrelated
  /// *top-level* task (e.g. a whole campaign cell) — stolen shards are
  /// bounded work, external tasks are not.
  void wait();

private:
  friend class Scheduler;
  Scheduler &Sched;
  size_t Pending = 0; ///< unfinished children; guarded by the pool's lock
};

/// Aggregate scheduler counters (monotonic over the scheduler lifetime).
/// Purely observational: results never depend on them.
struct SchedulerStats {
  uint64_t Executed = 0; ///< tasks run to completion
  uint64_t Steals = 0;   ///< tasks taken from another worker's deque
};

/// The process-wide worker pool.  All work arrives through TaskGroups
/// (shardedFor forks through one), and groups may nest from inside
/// tasks.
class Scheduler {
public:
  /// Construction knobs beyond the worker count.  StealSeed and
  /// JitterSeed exist for the determinism stress tests: they force
  /// different victim-selection orders and pseudo-random yields, and the
  /// contract is that *no* result may depend on either.
  struct Options {
    /// Worker threads (0 means hardware concurrency, min 1).
    unsigned Threads = 0;
    /// Seeds each worker's victim-selection stream.
    uint64_t StealSeed = 0x57ea1ull;
    /// Non-zero: workers yield pseudo-randomly around task execution to
    /// shake out interleaving-dependent results (stress tests only).
    uint64_t JitterSeed = 0;
  };

  /// Starts \p NumThreads workers (0 means hardware concurrency, min 1).
  explicit Scheduler(unsigned NumThreads = 0);
  explicit Scheduler(const Options &Opts);

  /// Stops and joins the workers.  Every TaskGroup joins its children in
  /// its own destructor, so no task is outstanding by then.
  ~Scheduler();

  Scheduler(const Scheduler &) = delete;
  Scheduler &operator=(const Scheduler &) = delete;

  /// Number of worker threads.
  unsigned numThreads() const;

  /// Lifetime counters (exact for every task that has finished).
  SchedulerStats stats() const;

private:
  friend class TaskGroup;
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// Runs \p Fn(Shard, Begin, End) over the ceil(N / ShardSize) contiguous
/// shards of [0, N) and returns when all have run.  With a non-null
/// \p Workers and more than one shard, the shards are forked onto it and
/// joined; otherwise they run inline, in shard order.  Shard boundaries
/// depend only on \p N and \p ShardSize (0 reads as 1) — never on the
/// worker count or steal order — so deterministic shard work (with RNG
/// seeds keyed on the shard index) is bit-identical between the
/// sequential and parallel runs.  Legal from inside a task.
void shardedFor(Scheduler *Workers, size_t N, size_t ShardSize,
                const std::function<void(size_t, size_t, size_t)> &Fn);

} // namespace alic

#endif // ALIC_SUPPORT_SCHEDULER_H
