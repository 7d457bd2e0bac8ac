//===- support/Env.h - Environment-variable configuration -----*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reading scale/tuning knobs from the environment.  The bench binaries run
/// at a laptop-friendly scale by default; ALIC_SCALE=paper restores the
/// paper's full parameters (N=5000 particles, nmax=2500, 10 repetitions).
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SUPPORT_ENV_H
#define ALIC_SUPPORT_ENV_H

#include <cstdint>
#include <string>

namespace alic {

/// Returns the environment variable \p Name or \p Default when unset/empty.
std::string getEnvString(const char *Name, const std::string &Default);

/// Returns \p Name parsed as int64, or \p Default when unset or malformed.
int64_t getEnvInt(const char *Name, int64_t Default);

/// Experiment scale presets.
enum class ScaleKind {
  Smoke, ///< seconds-long sanity scale (used by CI/tests)
  Bench, ///< default minutes-long scale for the bench binaries
  Paper, ///< the paper's full parameters (hours on one core)
};

/// Parses a scale name: "smoke", "bench" or "paper", exactly.  On failure
/// \p Out is left unchanged.
bool parseScaleKind(const std::string &Text, ScaleKind &Out);

/// Reads ALIC_SCALE through parseScaleKind; unset, empty or unknown means
/// Bench here (the CLIs refuse an unknown value at startup instead).
ScaleKind getScaleKind();

/// Human-readable name of a scale preset.
const char *scaleName(ScaleKind Kind);

} // namespace alic

#endif // ALIC_SUPPORT_ENV_H
