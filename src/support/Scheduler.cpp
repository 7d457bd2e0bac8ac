//===- support/Scheduler.cpp ----------------------------------*- C++ -*-===//
//
// Implementation notes.
//
// One lock guards all scheduler state: the per-worker deques, the
// external queue, every TaskGroup's Pending count, the park count and
// the stats.  A thread takes it to fork, to find a task, and to retire
// one; retiring a task and finding the next share one acquisition.
// Tasks run unlocked.
//
// Sleep/wake: a thread parks on the one condition variable only after a
// find under the lock came up empty, and everything that can let a
// parked thread go on (a fork, a group's last child finishing,
// shutdown) changes state under the lock and then notifies if a thread
// is parked, so no wakeup is lost.  A task forked onto a deque wakes one
// thread, since any parked thread may steal it; an external task or a
// finished group wakes all, since only some of them may act on it.
//
// Helping: the worker loop and TaskGroup::wait() are one loop.  It takes
// from its own deque first (the newest fork, LIFO), then the external
// queue, then steals the oldest task of another worker's deque.  A join
// scopes its external-queue takes to its own group's children: stolen
// deque tasks are forked shards (bounded work), but external tasks are
// top-level units (whole campaign cells), and starting one inside a
// microsecond-scale shard join would stack cell frames to arbitrary
// depth and invert latency.  Only idle workers take any external task.
// Progress never deadlocks: a worker parks only with an empty own deque,
// so forked children are always executed eventually by their forker if
// nobody steals them first.
//
//===----------------------------------------------------------------------===//

#include "support/Scheduler.h"

#include "support/Rng.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

using namespace alic;

namespace {

struct Task {
  std::function<void()> Fn;
  TaskGroup *Group = nullptr; ///< the group whose join counts this task
};

} // namespace

namespace alic {

struct Scheduler::Impl {
  /// Per-thread identity: which worker of which scheduler (if any) the
  /// current thread is.  Helpers on external threads have none.
  struct ThreadContext {
    Impl *Owner = nullptr;
    std::deque<Task> *Own = nullptr;
    Rng VictimRng{0};
    Rng JitterRng{0};
    bool Jitter = false;
  };
  static thread_local ThreadContext *Current;

  explicit Impl(const Options &Opts) : Opts(Opts) {}

  Options Opts;
  std::vector<std::thread> Threads;

  // Everything below is guarded by Lock.  Deques is sized before the
  // first worker starts and never resized.
  std::mutex Lock;
  std::condition_variable Wake;
  std::vector<std::deque<Task>> Deques; ///< one per worker
  std::deque<Task> External;            ///< forked by non-worker threads
  unsigned Parked = 0;
  bool Stopping = false;
  SchedulerStats Stats;

  ThreadContext *contextHere() {
    return Current && Current->Owner == this ? Current : nullptr;
  }

  void fork(TaskGroup *Group, std::function<void()> Fn) {
    ThreadContext *Ctx = contextHere();
    std::lock_guard<std::mutex> Guard(Lock);
    ++Group->Pending;
    (Ctx ? *Ctx->Own : External).push_back({std::move(Fn), Group});
    if (Parked == 0)
      return;
    if (Ctx)
      Wake.notify_one();
    else
      Wake.notify_all();
  }

  /// Moves the next task this thread may run into \p Out: the back of
  /// its own deque, else the oldest external task (only \p Join's
  /// children when set), else the front of another worker's deque, in a
  /// sweep from a pseudo-random victim (the own deque is empty by then).
  /// The caller holds Lock.
  bool take(ThreadContext *Ctx, TaskGroup *Join, Task &Out) {
    if (Ctx && !Ctx->Own->empty()) {
      Out = std::move(Ctx->Own->back());
      Ctx->Own->pop_back();
      return true;
    }
    for (auto It = External.begin(); It != External.end(); ++It)
      if (!Join || It->Group == Join) {
        Out = std::move(*It);
        External.erase(It);
        return true;
      }
    size_t N = Deques.size();
    size_t Start = Ctx ? size_t(Ctx->VictimRng.nextBounded(N)) : 0;
    for (size_t I = 0; I != N; ++I) {
      std::deque<Task> &Victim = Deques[(Start + I) % N];
      if (Victim.empty())
        continue;
      Out = std::move(Victim.front());
      Victim.pop_front();
      ++Stats.Steals;
      return true;
    }
    return false;
  }

  /// The one scheduling loop: a worker (\p Join null) runs tasks until
  /// shutdown, TaskGroup::wait() until \p Join's last child finishes.
  void loop(TaskGroup *Join) {
    ThreadContext *Ctx = contextHere();
    std::unique_lock<std::mutex> Guard(Lock);
    while (Join ? Join->Pending != 0 : !Stopping) {
      Task T;
      if (!take(Ctx, Join, T)) {
        ++Parked;
        Wake.wait(Guard);
        --Parked;
        continue;
      }
      Guard.unlock();
      if (Ctx && Ctx->Jitter && Ctx->JitterRng.nextBernoulli(0.25))
        std::this_thread::yield();
      T.Fn();
      // Release the captures before the join can return.
      T.Fn = nullptr;
      Guard.lock();
      ++Stats.Executed;
      if (--T.Group->Pending == 0 && Parked != 0)
        Wake.notify_all(); // the group just completed: wake its waiter
    }
  }

  void workerMain(unsigned Index) {
    ThreadContext Ctx;
    Ctx.Owner = this;
    Ctx.Own = &Deques[Index];
    Ctx.VictimRng = Rng(hashCombine({Opts.StealSeed, uint64_t(Index)}));
    if (Opts.JitterSeed) {
      Ctx.Jitter = true;
      Ctx.JitterRng = Rng(hashCombine({Opts.JitterSeed, uint64_t(Index)}));
    }
    Current = &Ctx;
    loop(nullptr);
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
  I->Deques.resize(N);
  I->Threads.reserve(N);
  for (unsigned W = 0; W != N; ++W)
    I->Threads.emplace_back([this, W] { I->workerMain(W); });
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> Guard(I->Lock);
    I->Stopping = true;
  }
  I->Wake.notify_all();
  for (std::thread &T : I->Threads)
    T.join();
}

unsigned Scheduler::numThreads() const {
  return unsigned(I->Threads.size());
}

SchedulerStats Scheduler::stats() const {
  std::lock_guard<std::mutex> Guard(I->Lock);
  return I->Stats;
}

void TaskGroup::run(std::function<void()> Fn) {
  Sched.I->fork(this, std::move(Fn));
}

void TaskGroup::wait() { Sched.I->loop(this); }

void alic::shardedFor(Scheduler *Workers, size_t N, size_t ShardSize,
                      const std::function<void(size_t, size_t, size_t)> &Fn) {
  if (ShardSize == 0)
    ShardSize = 1;
  // A one-shard grid (common at smoke scale: 60 particles fit one
  // particle shard) runs inline like a grid without a pool, skipping the
  // fork-and-join round trip; the grid, and so every result, is the same.
  // The group's destructor joins the forked shards.
  std::optional<TaskGroup> Group;
  if (Workers && N > ShardSize)
    Group.emplace(*Workers);
  for (size_t Begin = 0, Shard = 0; Begin < N; Begin += ShardSize, ++Shard) {
    size_t End = std::min(N, Begin + ShardSize);
    if (Group)
      Group->run([&Fn, Shard, Begin, End] { Fn(Shard, Begin, End); });
    else
      Fn(Shard, Begin, End);
  }
}
