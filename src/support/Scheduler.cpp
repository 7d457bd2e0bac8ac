//===- support/Scheduler.cpp ----------------------------------*- C++ -*-===//
//
// Implementation notes.
//
// Deques: each worker owns a Chase-Lev deque of Task pointers (dynamic
// circular array).  The owner pushes and pops at the bottom; thieves
// compete for the top slot with a CAS.  This is the fence-free variant
// of Le/Pop/Cohen/Nardelli, "Correct and Efficient Work-Stealing for
// Weak Memory Models" (PPoPP'13), with the standalone fences replaced by
// seq_cst operations on Top/Bottom — marginally slower, but every
// synchronizing access is an atomic operation ThreadSanitizer models
// (TSan ignores standalone fences and would report false races).
// Retired rings are kept until the deque dies, so a thief holding a
// stale ring pointer can always complete its (doomed) read.
//
// Sleep/wake: an eventcount.  Every action that makes work runnable or
// completes a join target bumps Epoch and wakes sleepers; a thread parks
// only after re-scanning for work against a pre-sleep Epoch snapshot, so
// wakeups cannot be lost.
//
// Helping: TaskGroup::wait() executes pending tasks while it waits —
// own deque first (the group's own children, LIFO), then the external
// queue, then steals.  Group waits scope their external-queue pops to
// their own children: stolen deque tasks are forked shards (bounded
// work), but external tasks are top-level units (whole campaign cells),
// and starting one inside a microsecond-scale shard join would stack
// cell frames to arbitrary depth and invert latency.  Only idle workers
// take any external task.  Progress never deadlocks: a worker parks only
// with an empty own deque, so forked children are always executed
// eventually by their forker if nobody steals them first, and every
// completion bumps the eventcount.
//
//===----------------------------------------------------------------------===//

#include "support/Scheduler.h"

#include "support/Rng.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

using namespace alic;

namespace {

struct Task {
  std::function<void()> Fn;
  TaskGroup *Group; ///< the group whose join counts this task
};

/// Chase-Lev work-stealing deque of Task pointers.
class ChaseLevDeque {
public:
  ChaseLevDeque() { Buffer.store(newRing(64), std::memory_order_relaxed); }

  ~ChaseLevDeque() {
    for (Ring *R : Retired)
      deleteRing(R);
    deleteRing(Buffer.load(std::memory_order_relaxed));
  }

  /// Owner only.
  void push(Task *T) {
    int64_t B = Bottom.load(std::memory_order_relaxed);
    int64_t Tp = Top.load(std::memory_order_acquire);
    Ring *R = Buffer.load(std::memory_order_relaxed);
    if (B - Tp > int64_t(R->Capacity) - 1) {
      // Full: double the ring, copying the live [Tp, B) window by
      // absolute index.  The old ring stays allocated (thieves may still
      // be reading it); its live slots are never overwritten again.
      Ring *Grown = newRing(R->Capacity * 2);
      for (int64_t It = Tp; It != B; ++It)
        Grown->slot(It).store(R->slot(It).load(std::memory_order_relaxed),
                              std::memory_order_relaxed);
      Retired.push_back(R);
      Buffer.store(Grown, std::memory_order_release);
      R = Grown;
    }
    R->slot(B).store(T, std::memory_order_relaxed);
    // The release publishes the slot write to any thief that acquires
    // the new Bottom.
    Bottom.store(B + 1, std::memory_order_seq_cst);
  }

  /// Owner only.
  Task *pop() {
    int64_t B = Bottom.load(std::memory_order_relaxed) - 1;
    Ring *R = Buffer.load(std::memory_order_relaxed);
    Bottom.store(B, std::memory_order_seq_cst);
    int64_t Tp = Top.load(std::memory_order_seq_cst);
    if (Tp > B) {
      // Empty: restore Bottom.
      Bottom.store(B + 1, std::memory_order_relaxed);
      return nullptr;
    }
    Task *Out = R->slot(B).load(std::memory_order_relaxed);
    if (Tp != B)
      return Out; // more than one element left: no thief can race us here
    // Exactly one element: race a potential thief for it via Top.
    if (!Top.compare_exchange_strong(Tp, Tp + 1, std::memory_order_seq_cst,
                                     std::memory_order_relaxed))
      Out = nullptr; // a thief won
    Bottom.store(B + 1, std::memory_order_relaxed);
    return Out;
  }

  /// Any thread.
  Task *steal() {
    int64_t Tp = Top.load(std::memory_order_seq_cst);
    int64_t B = Bottom.load(std::memory_order_seq_cst);
    if (Tp >= B)
      return nullptr;
    Ring *R = Buffer.load(std::memory_order_acquire);
    Task *Out = R->slot(Tp).load(std::memory_order_relaxed);
    if (!Top.compare_exchange_strong(Tp, Tp + 1, std::memory_order_seq_cst,
                                     std::memory_order_relaxed))
      return nullptr; // lost the race; caller retries elsewhere
    return Out;
  }

private:
  struct Ring {
    size_t Capacity;
    size_t Mask;
    std::atomic<Task *> *Slots;
    std::atomic<Task *> &slot(int64_t I) { return Slots[size_t(I) & Mask]; }
  };

  static Ring *newRing(size_t Capacity) {
    // Value-initialize the slots: a thief that lost a growth race may
    // load a slot the owner never wrote before its (doomed) CAS, and
    // that load must not read an indeterminate value.
    Ring *R = new Ring{Capacity, Capacity - 1,
                       new std::atomic<Task *>[Capacity]()};
    return R;
  }

  static void deleteRing(Ring *R) {
    delete[] R->Slots;
    delete R;
  }

  std::atomic<int64_t> Top{0};
  std::atomic<int64_t> Bottom{0};
  std::atomic<Ring *> Buffer{nullptr};
  std::vector<Ring *> Retired; ///< owner-only; freed with the deque
};

} // namespace

//===----------------------------------------------------------------------===//
// Scheduler implementation
//===----------------------------------------------------------------------===//

namespace alic {

struct Scheduler::Impl {
  struct alignas(64) Worker {
    ChaseLevDeque Deque;
    std::atomic<uint64_t> Steals{0};
    std::atomic<uint64_t> Executed{0};
    std::thread Thread;
  };

  explicit Impl(const Options &Opts) : Opts(Opts) {}

  Options Opts;
  std::vector<std::unique_ptr<Worker>> Workers;

  /// Tasks forked from non-worker threads.
  std::mutex ExternalMutex;
  std::deque<Task *> External;

  /// Steals performed by helping non-worker threads.
  std::atomic<uint64_t> ExternalSteals{0};
  std::atomic<uint64_t> ExternalExecuted{0};

  // Eventcount.
  std::mutex SleepMutex;
  std::condition_variable SleepCv;
  std::atomic<uint64_t> Epoch{0};
  std::atomic<unsigned> Sleepers{0};
  std::atomic<bool> ShuttingDown{false};

  /// Per-thread identity: which worker of which scheduler (if any) the
  /// current thread is.  Helpers on external threads have none.
  struct ThreadContext {
    Impl *Owner = nullptr;
    Worker *Self = nullptr;
    Rng VictimRng{0};
    Rng JitterRng{0};
    bool Jitter = false;
  };
  static thread_local ThreadContext *Current;

  ThreadContext *contextHere() {
    return Current && Current->Owner == this ? Current : nullptr;
  }

  /// Wakes anything parked: work became runnable or a join target
  /// completed.
  void notify() {
    Epoch.fetch_add(1);
    if (Sleepers.load() != 0) {
      std::lock_guard<std::mutex> Lock(SleepMutex);
      SleepCv.notify_all();
    }
  }

  void enqueue(Task *T) {
    if (ThreadContext *Ctx = contextHere())
      Ctx->Self->Deque.push(T);
    else {
      std::lock_guard<std::mutex> Lock(ExternalMutex);
      External.push_back(T);
    }
    notify();
  }

  /// Pops the oldest external task — any task when \p Restrict is null
  /// (worker loops), else only tasks of that group.  The
  /// restriction bounds helping: a fine-grained shard join must never
  /// pull an unrelated *top-level* task (a whole campaign cell) off the
  /// external queue, which would stack cell frames to arbitrary depth
  /// and stall a microsecond join behind seconds of stolen work.
  Task *popExternal(TaskGroup *Restrict) {
    std::lock_guard<std::mutex> Lock(ExternalMutex);
    if (!Restrict) {
      if (External.empty())
        return nullptr;
      Task *T = External.front();
      External.pop_front();
      return T;
    }
    for (auto It = External.begin(); It != External.end(); ++It)
      if ((*It)->Group == Restrict) {
        Task *T = *It;
        External.erase(It);
        return T;
      }
    return nullptr;
  }

  /// One full steal sweep starting at a pseudo-random victim.  \p Thief
  /// is null for external helpers.
  Task *trySteal(ThreadContext *Ctx) {
    size_t N = Workers.size();
    if (N == 0)
      return nullptr;
    size_t Start =
        Ctx ? size_t(Ctx->VictimRng.nextBounded(N)) : 0;
    for (size_t I = 0; I != N; ++I) {
      Worker *Victim = Workers[(Start + I) % N].get();
      if (Ctx && Victim == Ctx->Self)
        continue;
      if (Task *T = Victim->Deque.steal()) {
        if (Ctx)
          Ctx->Self->Steals.fetch_add(1, std::memory_order_relaxed);
        else
          ExternalSteals.fetch_add(1, std::memory_order_relaxed);
        return T;
      }
    }
    return nullptr;
  }

  /// Own deque, then the external queue (scoped to \p Restrict when
  /// set), then one steal sweep.  Steals are never restricted: deques
  /// hold forked *shards*, whose execution time is bounded by their
  /// forker — unlike external top-level tasks.
  Task *findTask(ThreadContext *Ctx, TaskGroup *Restrict) {
    if (Ctx)
      if (Task *T = Ctx->Self->Deque.pop())
        return T;
    if (Task *T = popExternal(Restrict))
      return T;
    return trySteal(Ctx);
  }

  void execute(Task *T, ThreadContext *Ctx) {
    if (Ctx && Ctx->Jitter && Ctx->JitterRng.nextBernoulli(0.25))
      std::this_thread::yield();
    T->Fn();
    TaskGroup *Group = T->Group;
    delete T;
    if (Ctx)
      Ctx->Self->Executed.fetch_add(1, std::memory_order_relaxed);
    else
      ExternalExecuted.fetch_add(1, std::memory_order_relaxed);
    if (Group->Pending.fetch_sub(1) == 1)
      notify(); // the group just completed: wake its waiter
  }

  /// TaskGroup::wait's helping join loop: execute tasks until \p Done
  /// reports completion, parking via the eventcount when nothing is
  /// runnable.  External-queue pops are scoped to \p Restrict's own
  /// children; anything stealable is fair game.
  template <typename DonePredicate>
  void helpUntil(DonePredicate Done, TaskGroup *Restrict) {
    ThreadContext *Ctx = contextHere();
    while (!Done()) {
      if (Task *T = findTask(Ctx, Restrict)) {
        execute(T, Ctx);
        continue;
      }
      uint64_t Snapshot = Epoch.load();
      if (Done())
        return;
      // Re-scan between the snapshot and the park: any work (or the
      // completion) arriving after the snapshot bumps Epoch and defeats
      // the wait below.
      if (Task *T = findTask(Ctx, Restrict)) {
        execute(T, Ctx);
        continue;
      }
      Sleepers.fetch_add(1);
      {
        std::unique_lock<std::mutex> Lock(SleepMutex);
        SleepCv.wait(Lock, [&] { return Epoch.load() != Snapshot; });
      }
      Sleepers.fetch_sub(1);
    }
  }

  void workerLoop(Worker *Self, unsigned Index) {
    ThreadContext Ctx;
    Ctx.Owner = this;
    Ctx.Self = Self;
    Ctx.VictimRng = Rng(hashCombine({Opts.StealSeed, uint64_t(Index)}));
    if (Opts.JitterSeed) {
      Ctx.Jitter = true;
      Ctx.JitterRng = Rng(hashCombine({Opts.JitterSeed, uint64_t(Index)}));
    }
    Current = &Ctx;
    while (true) {
      if (Task *T = findTask(&Ctx, nullptr)) {
        execute(T, &Ctx);
        continue;
      }
      uint64_t Snapshot = Epoch.load();
      if (ShuttingDown.load())
        break;
      if (Task *T = findTask(&Ctx, nullptr)) {
        execute(T, &Ctx);
        continue;
      }
      Sleepers.fetch_add(1);
      {
        std::unique_lock<std::mutex> Lock(SleepMutex);
        SleepCv.wait(Lock, [&] {
          return Epoch.load() != Snapshot || ShuttingDown.load();
        });
      }
      Sleepers.fetch_sub(1);
    }
    Current = nullptr;
  }
};

thread_local Scheduler::Impl::ThreadContext *Scheduler::Impl::Current =
    nullptr;

} // namespace alic

Scheduler::Scheduler(unsigned NumThreads)
    : Scheduler([NumThreads] {
        Options Opts;
        Opts.Threads = NumThreads;
        return Opts;
      }()) {}

Scheduler::Scheduler(const Options &Opts) : I(new Impl(Opts)) {
  unsigned N = Opts.Threads;
  if (N == 0)
    N = std::max(1u, std::thread::hardware_concurrency());
  I->Workers.reserve(N);
  for (unsigned W = 0; W != N; ++W)
    I->Workers.push_back(std::make_unique<Impl::Worker>());
  // Start the threads only once the Workers vector is complete: steal
  // sweeps iterate over it without locks.
  for (unsigned W = 0; W != N; ++W) {
    Impl::Worker *Self = I->Workers[W].get();
    Self->Thread = std::thread([this, Self, W] { I->workerLoop(Self, W); });
  }
}

Scheduler::~Scheduler() {
  I->ShuttingDown.store(true);
  I->Epoch.fetch_add(1);
  {
    std::lock_guard<std::mutex> Lock(I->SleepMutex);
    I->SleepCv.notify_all();
  }
  for (auto &Worker : I->Workers)
    Worker->Thread.join();
}

unsigned Scheduler::numThreads() const {
  return unsigned(I->Workers.size());
}

void Scheduler::fork(TaskGroup *Group, std::function<void()> Fn) {
  Group->Pending.fetch_add(1);
  I->enqueue(new Task{std::move(Fn), Group});
}

void Scheduler::waitGroup(TaskGroup &Group) {
  I->helpUntil([&Group] { return Group.Pending.load() == 0; }, &Group);
}

void Scheduler::parallelFor(size_t N,
                            const std::function<void(size_t)> &Fn) {
  if (N == 0)
    return;
  if (N == 1) {
    // Nothing to distribute: run on the calling thread.  Equivalent to
    // forking and immediately helping, minus the task round trip.
    Fn(0);
    return;
  }
  TaskGroup Group(*this);
  for (size_t Index = 0; Index != N; ++Index)
    Group.run([&Fn, Index] { Fn(Index); });
  Group.wait();
}

void Scheduler::parallelForShards(
    size_t N, size_t ShardSize,
    const std::function<void(size_t, size_t, size_t)> &Fn) {
  if (ShardSize == 0)
    ShardSize = 1;
  size_t NumShards = (N + ShardSize - 1) / ShardSize;
  if (NumShards == 1) {
    // One-shard grids are common at smoke scale (60 particles fit one
    // particle shard): run inline, skipping the fork-and-help round
    // trip.  The grid — and therefore every result — is unchanged.
    if (N != 0)
      Fn(0, 0, N);
    return;
  }
  TaskGroup Group(*this);
  for (size_t Shard = 0; Shard != NumShards; ++Shard) {
    size_t Begin = Shard * ShardSize;
    size_t End = std::min(N, Begin + ShardSize);
    Group.run([&Fn, Shard, Begin, End] { Fn(Shard, Begin, End); });
  }
  Group.wait();
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats Stats;
  Stats.Executed = I->ExternalExecuted.load(std::memory_order_relaxed);
  Stats.Steals = I->ExternalSteals.load(std::memory_order_relaxed);
  for (const auto &Worker : I->Workers) {
    Stats.Executed += Worker->Executed.load(std::memory_order_relaxed);
    Stats.Steals += Worker->Steals.load(std::memory_order_relaxed);
  }
  return Stats;
}

void TaskGroup::run(std::function<void()> Fn) {
  Sched.fork(this, std::move(Fn));
}

void TaskGroup::wait() { Sched.waitGroup(*this); }

void alic::shardedFor(Scheduler *Workers, size_t N, size_t ShardSize,
                      const std::function<void(size_t, size_t, size_t)> &Fn) {
  if (Workers) {
    Workers->parallelForShards(N, ShardSize, Fn);
    return;
  }
  if (ShardSize == 0)
    ShardSize = 1;
  for (size_t Begin = 0, Shard = 0; Begin < N; Begin += ShardSize, ++Shard)
    Fn(Shard, Begin, std::min(N, Begin + ShardSize));
}
