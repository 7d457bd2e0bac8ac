//===- support/FailPoint.cpp ----------------------------------*- C++ -*-===//

#include "support/FailPoint.h"

#include "support/Env.h"
#include "support/Parse.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <mutex>

#include <unistd.h>

using namespace alic;

std::atomic<uint32_t> failpoints::ArmedCount{0};

namespace {

struct PointState {
  bool Armed = false;
  FailSpec Spec;
  uint64_t Hits = 0;  ///< evaluations since the last global reset
  uint64_t Fires = 0; ///< evaluations that injected an outcome
};

struct Registry {
  std::mutex M;
  std::map<std::string, PointState> Points;
  bool EnvParsed = false;
};

/// Function-local static: safe to touch from static initializers of other
/// translation units and from the first evaluate() of any thread.
Registry &registry() {
  static Registry R;
  return R;
}

int modeErrno(const std::string &Token, bool &Ok) {
  Ok = true;
  if (Token == "enospc")
    return ENOSPC;
  if (Token == "eio")
    return EIO;
  if (Token == "eintr")
    return EINTR;
  if (Token == "eagain")
    return EAGAIN;
  if (Token == "emfile")
    return EMFILE;
  Ok = false;
  return 0;
}

/// Parses \p Text as a decimal number in [\p Min, \p Max] into \p Out;
/// \p Max defaults to the largest value of \p Out's type.
template <typename T>
bool parseField(const std::string &Text, uint64_t Min, T &Out,
                uint64_t Max = std::numeric_limits<T>::max()) {
  uint64_t Value = 0;
  if (!parseCount(Text, Max, Value) || Value < Min)
    return false;
  Out = T(Value);
  return true;
}

using ParsedClauses = std::vector<std::pair<std::string, FailSpec>>;

/// Splits an ALIC_FAILPOINTS-style string ("name=spec;name=spec") and
/// parses every clause before anything is armed.  On a malformed clause
/// returns false with the clause in \p Bad.
bool parseClauses(const std::string &Text, ParsedClauses &Out,
                  std::string &Bad) {
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Semi = Text.find(';', Pos);
    if (Semi == std::string::npos)
      Semi = Text.size();
    std::string Clause = Text.substr(Pos, Semi - Pos);
    Pos = Semi + 1;
    if (Clause.empty())
      continue;
    size_t Eq = Clause.find('=');
    FailSpec Spec;
    if (Eq == std::string::npos || Eq == 0 ||
        !parseFailSpec(Clause.substr(Eq + 1), Spec)) {
      Bad = Clause;
      return false;
    }
    Out.emplace_back(Clause.substr(0, Eq), Spec);
  }
  return true;
}

/// Arms \p Name with \p Spec; called under the registry mutex.
void armLocked(Registry &R, const std::string &Name, const FailSpec &Spec) {
  PointState &P = R.Points[Name];
  if (!P.Armed)
    failpoints::ArmedCount.fetch_add(1, std::memory_order_relaxed);
  P.Armed = true;
  P.Spec = Spec;
  P.Hits = 0;
  P.Fires = 0;
}

/// Parses ALIC_FAILPOINTS exactly once per process; called under the
/// registry mutex.  A malformed value aborts loudly — a chaos harness
/// silently running *without* its faults armed would "pass" everything.
void parseEnvLocked(Registry &R) {
  if (R.EnvParsed)
    return;
  R.EnvParsed = true;
  ParsedClauses Parsed;
  std::string Bad;
  if (!parseClauses(getEnvString("ALIC_FAILPOINTS", ""), Parsed, Bad)) {
    std::fprintf(stderr, "alic: malformed ALIC_FAILPOINTS clause '%s'\n",
                 Bad.c_str());
    std::abort();
  }
  for (const auto &[Name, Spec] : Parsed)
    armLocked(R, Name, Spec);
}

/// Parses ALIC_FAILPOINTS during static initialization, so ArmedCount is
/// already nonzero by the time any site's disabled fast path runs (the
/// fast path never re-checks the environment).
struct EnvArmer {
  EnvArmer() {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.M);
    parseEnvLocked(R);
  }
} TheEnvArmer;

} // namespace

bool alic::parseFailSpec(const std::string &Text, FailSpec &Spec) {
  Spec = FailSpec();
  bool SawMode = false;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Comma = Text.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Text.size();
    std::string Part = Text.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    if (Part.empty())
      continue;
    size_t Colon = Part.find(':');
    std::string Key = Part.substr(0, Colon == std::string::npos ? Part.size()
                                                                : Colon);
    std::string Value =
        Colon == std::string::npos ? std::string() : Part.substr(Colon + 1);
    if (Key == "nth") {
      if (!parseField(Value, 1, Spec.Nth))
        return false;
    } else if (Key == "count") {
      if (!parseField(Value, 1, Spec.Count))
        return false;
    } else if (Key == "mode") {
      SawMode = true;
      if (Value == "crash") {
        Spec.Mode = FailMode::Crash;
      } else if (Value.rfind("torn:", 0) == 0) {
        if (!parseField(Value.substr(5), 0, Spec.TornBytes))
          return false;
        Spec.Mode = FailMode::Torn;
        Spec.Errno = ENOSPC; // a torn write is a full disk unless overridden
      } else if (Value.rfind("errno:", 0) == 0) {
        if (!parseField(Value.substr(6), 1, Spec.Errno))
          return false;
        Spec.Mode = FailMode::Error;
      } else {
        bool Ok;
        int Err = modeErrno(Value, Ok);
        if (!Ok)
          return false;
        Spec.Mode = FailMode::Error;
        Spec.Errno = Err;
      }
    } else if (Key == "exit") {
      if (!parseField(Value, 0, Spec.ExitCode, 255))
        return false;
    } else {
      return false;
    }
  }
  return SawMode;
}

int alic::armFailPointsFromString(const std::string &Text) {
  ParsedClauses Parsed;
  std::string Bad;
  if (!parseClauses(Text, Parsed, Bad))
    return -1;
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  parseEnvLocked(R);
  for (const auto &[Name, Spec] : Parsed)
    armLocked(R, Name, Spec);
  return int(Parsed.size());
}

void alic::armFailPoint(const std::string &Name, const FailSpec &Spec) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  parseEnvLocked(R);
  armLocked(R, Name, Spec);
}

void alic::disarmFailPoint(const std::string &Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  auto It = R.Points.find(Name);
  if (It == R.Points.end() || !It->second.Armed)
    return;
  It->second.Armed = false;
  failpoints::ArmedCount.fetch_sub(1, std::memory_order_relaxed);
}

void alic::disarmAllFailPoints() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  for (auto &[Name, P] : R.Points) {
    (void)Name;
    if (P.Armed)
      failpoints::ArmedCount.fetch_sub(1, std::memory_order_relaxed);
    P = PointState();
  }
}

uint64_t alic::failPointHits(const std::string &Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  auto It = R.Points.find(Name);
  return It == R.Points.end() ? 0 : It->second.Hits;
}

uint64_t alic::failPointFires(const std::string &Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.M);
  auto It = R.Points.find(Name);
  return It == R.Points.end() ? 0 : It->second.Fires;
}

FailOutcome failpoints::evaluateSlow(const char *Name) {
  Registry &R = registry();
  FailSpec Spec;
  bool Fire = false;
  {
    std::lock_guard<std::mutex> Lock(R.M);
    parseEnvLocked(R);
    auto It = R.Points.find(Name);
    if (It == R.Points.end() || !It->second.Armed)
      return FailOutcome();
    PointState &P = It->second;
    ++P.Hits;
    if (P.Hits >= P.Spec.Nth && P.Hits - P.Spec.Nth < P.Spec.Count) {
      Fire = true;
      Spec = P.Spec;
      ++P.Fires;
    }
  }
  if (!Fire)
    return FailOutcome();
  if (Spec.Mode == FailMode::Crash) {
    // The whole point: die with no unwinding, destructors, or flushing —
    // exactly what a power loss or SIGKILL at this syscall looks like.
    std::fprintf(stderr, "alic: failpoint '%s' crash\n", Name);
    ::_exit(Spec.ExitCode);
  }
  FailOutcome Out;
  Out.Fire = true;
  Out.Mode = Spec.Mode;
  Out.Errno = Spec.Errno;
  Out.TornBytes = Spec.TornBytes;
  return Out;
}
