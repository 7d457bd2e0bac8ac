//===- support/FailPoint.h - Named fault-injection points -----*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for the durability and network paths.
/// A *failpoint* is a named site in the code — `ALIC_FAILPOINT("ledger.append")`
/// — that is a single relaxed-atomic load when nothing is armed, and when
/// armed injects one of three outcomes at a chosen hit:
///
///  * **Error**: the site reports failure with a chosen errno (ENOSPC,
///    EIO, EINTR, ...) without touching the real syscall;
///  * **Torn**: the site performs only the first N bytes of its write,
///    then reports failure — a torn/short write;
///  * **Crash**: the process `_exit()`s on the spot — the
///    kill-at-every-sync-point chaos tests.
///
/// Arming is either programmatic (tests: armFailPoint / ScopedFailPoint)
/// or via the environment (child processes in chaos harnesses):
///
///     ALIC_FAILPOINTS="ledger.append=nth:3,mode:enospc;atomicfile.sync=mode:crash"
///
/// `nth:k` fires from the k-th hit of the site (1-based, default 1) and
/// `count:m` limits how many consecutive hits fire (default: unlimited).
/// Modes: `enospc`, `eio`, `eintr`, `eagain`, `emfile`, `errno:<n>`,
/// `torn:<bytes>`, `crash`.  The environment is parsed once, on the first
/// evaluation after process start.
///
/// The registered site names form a stable catalog (see the "Failure
/// model" section of docs/ARCHITECTURE.md); chaos harnesses iterate it.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SUPPORT_FAILPOINT_H
#define ALIC_SUPPORT_FAILPOINT_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace alic {

/// What an armed failpoint injects when it fires.
enum class FailMode : uint8_t {
  Error, ///< report failure with FailSpec::Errno, syscall not attempted
  Torn,  ///< perform only FailSpec::TornBytes bytes, then report Errno
  Crash, ///< _exit(FailSpec::ExitCode) at the site
};

/// The arming of one failpoint.
struct FailSpec {
  FailMode Mode = FailMode::Error;
  int Errno = 5;           ///< EIO by default; ENOSPC for mode enospc, ...
  uint64_t Nth = 1;        ///< first firing hit, 1-based
  uint64_t Count = ~0ull;  ///< consecutive firing hits from Nth (default all)
  size_t TornBytes = 0;    ///< bytes let through before a Torn failure
  int ExitCode = 43;       ///< _exit code of Crash firings
};

/// The verdict one evaluation of a failpoint returns to its site.  When
/// `Fire` is false the site proceeds normally.  Crash firings never
/// return (the evaluation `_exit`s).
struct FailOutcome {
  bool Fire = false;
  FailMode Mode = FailMode::Error;
  int Errno = 0;
  size_t TornBytes = 0;
};

namespace failpoints {

/// Nonzero while any failpoint is armed (programmatically or via
/// ALIC_FAILPOINTS).  The macro's disabled-path cost is exactly one
/// relaxed load of this counter.
extern std::atomic<uint32_t> ArmedCount;

/// Slow path: counts the hit and decides whether it fires.  Only called
/// when ArmedCount is nonzero (or on the very first hit, to parse the
/// environment).
FailOutcome evaluateSlow(const char *Name);

/// Evaluates failpoint \p Name at its site.
inline FailOutcome evaluate(const char *Name) {
  if (ArmedCount.load(std::memory_order_relaxed) == 0)
    return FailOutcome();
  return evaluateSlow(Name);
}

} // namespace failpoints

/// Arms failpoint \p Name with \p Spec (replacing any previous arming,
/// resetting its hit counter).  Thread-safe.
void armFailPoint(const std::string &Name, const FailSpec &Spec);

/// Disarms failpoint \p Name; its hit counter keeps counting.
void disarmFailPoint(const std::string &Name);

/// Disarms every failpoint and zeroes every hit counter (test teardown).
void disarmAllFailPoints();

/// Parses one arming clause ("nth:3,mode:enospc,count:2") into \p Spec.
/// Unknown keys, malformed values and numbers outside their field's range
/// (nth and count from 1, errno from 1 to INT_MAX, exit up to 255) fail
/// (returning false) rather than arming a half-understood spec.
bool parseFailSpec(const std::string &Text, FailSpec &Spec);

/// Parses and arms every clause of an ALIC_FAILPOINTS-style string
/// ("name=clause;name=clause"), by the parser the environment goes
/// through.  Returns the number armed, or -1 on a parse error (nothing is
/// armed from a malformed string).
int armFailPointsFromString(const std::string &Text);

/// Times failpoint \p Name was hit (evaluated while anything was armed)
/// since the last disarmAllFailPoints(); hits on the disabled fast path
/// are not counted — by design the disabled path touches nothing.
uint64_t failPointHits(const std::string &Name);

/// Times failpoint \p Name actually fired.
uint64_t failPointFires(const std::string &Name);

/// RAII arming for tests: arms on construction, disarms on destruction.
class ScopedFailPoint {
public:
  ScopedFailPoint(std::string Name, const FailSpec &Spec)
      : Name(std::move(Name)) {
    armFailPoint(this->Name, Spec);
  }
  ~ScopedFailPoint() { disarmFailPoint(Name); }
  ScopedFailPoint(const ScopedFailPoint &) = delete;
  ScopedFailPoint &operator=(const ScopedFailPoint &) = delete;

private:
  std::string Name;
};

} // namespace alic

/// Evaluates the named failpoint; expands to a FailOutcome expression.
/// A single relaxed atomic load when nothing is armed.
#define ALIC_FAILPOINT(Name) (::alic::failpoints::evaluate(Name))

#endif // ALIC_SUPPORT_FAILPOINT_H
