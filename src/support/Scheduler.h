//===- support/Scheduler.h - Work-stealing nested scheduler ---*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A work-stealing scheduler that makes *nested* parallelism legal: one
/// worker pool serves every layer of the system, from campaign cells down
/// to DynaTree particle shards, GP scoring shards, and batched
/// profiler draws.
///
/// The predecessor (a fixed-size ThreadPool with one shared queue and a
/// blocking join) spent its whole parallelism budget at whatever
/// granularity first touched it: a pool task that re-entered the pool
/// deadlocked or serialized, so campaign cells had to keep their learners
/// model-internally sequential, and finished workers idled while the last
/// straggler cells ran alone.  This scheduler removes that restriction:
///
///  * every worker owns a Chase-Lev-style deque; it pushes forked child
///    tasks to the bottom and pops them LIFO, while idle workers steal
///    FIFO from the top — classic work-stealing locality;
///  * TaskGroup is the fork-join primitive; its wait() *helps* (executes
///    pending tasks — its own children first, then anything stealable)
///    instead of blocking, so a task may fork-and-wait on the same
///    scheduler to any depth without consuming a worker;
///  * parallelFor / parallelForShards are TaskGroups under the hood and
///    may be called from anywhere: an external thread, a worker, or a
///    task already running inside either of the two.
///
/// Determinism contract (unchanged from the ThreadPool it replaces, and
/// regression-tested): shard grids depend only on (N, ShardSize), shards
/// write disjoint outputs, and stochastic shard work draws from per-shard
/// counter-derived seeds.  Results are therefore bit-identical at any
/// worker count, under any steal interleaving, and whether the scheduler
/// exists at all (shardedFor(nullptr, ...) runs inline).  Steal order is
/// observable only through stats().
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SUPPORT_SCHEDULER_H
#define ALIC_SUPPORT_SCHEDULER_H

#include <atomic>
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
  /// while it waits, and parks only when there is nothing runnable.
  /// Helping is scoped so a fine-grained join never starts an unrelated
  /// *top-level* task (e.g. a whole campaign cell) — stolen shards are
  /// bounded work, external tasks are not.
  void wait();

private:
  friend class Scheduler;
  Scheduler &Sched;
  std::atomic<size_t> Pending{0};
};

/// Aggregate scheduler counters (monotonic over the scheduler lifetime).
/// Purely observational: results never depend on them.
struct SchedulerStats {
  uint64_t Executed = 0; ///< tasks run to completion
  uint64_t Steals = 0;   ///< tasks taken from another worker's deque
};

/// The process-wide worker pool.  All work arrives through TaskGroups
/// (parallelFor and parallelForShards are TaskGroups too), and groups may
/// nest from inside tasks.
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

  /// Runs \p Fn(I) for I in [0, N), distributing across the pool, and
  /// waits.  Legal from inside a task (the old pool deadlocked here).
  void parallelFor(size_t N, const std::function<void(size_t)> &Fn);

  /// Runs \p Fn(Shard, Begin, End) over ceil(N / ShardSize) contiguous
  /// shards of [0, N) and waits.  Shard boundaries depend only on \p N
  /// and \p ShardSize — never on the worker count or steal order — so
  /// deterministic work (and per-shard pre-derived RNG seeds keyed on the
  /// shard index) produces bit-identical results at any parallelism.
  void parallelForShards(size_t N, size_t ShardSize,
                         const std::function<void(size_t, size_t, size_t)> &Fn);

  /// Lifetime counters (sampled racily; exact once the pool is idle).
  SchedulerStats stats() const;

private:
  friend class TaskGroup;
  struct Impl;

  void fork(TaskGroup *Group, std::function<void()> Fn);
  void waitGroup(TaskGroup &Group);

  std::unique_ptr<Impl> I;
};

/// Runs \p Fn(Shard, Begin, End) over the fixed shard grid of [0, N) — on
/// \p Workers when non-null, inline (in shard order) when null.  The grid
/// is identical either way, so code written against this helper is
/// bit-reproducible between its sequential and parallel executions.
void shardedFor(Scheduler *Workers, size_t N, size_t ShardSize,
                const std::function<void(size_t, size_t, size_t)> &Fn);

} // namespace alic

#endif // ALIC_SUPPORT_SCHEDULER_H
