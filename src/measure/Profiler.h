//===- measure/Profiler.h - Virtual profiling harness ---------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement harness the learners drive.  A WorkloadOracle supplies
/// deterministic ground truth (mean runtime, compile time, noise profile)
/// for one benchmark; the Profiler draws noisy observations from it and
/// charges every compile and every run to a cost ledger.  The ledger total
/// is the paper's "evaluation time" axis: "the cumulative compilation and
/// runtimes of any executables used in training" (Section 4.3).
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_MEASURE_PROFILER_H
#define ALIC_MEASURE_PROFILER_H

#include "measure/NoiseModel.h"
#include "tunable/ParamSpace.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace alic {

/// Ground-truth provider for one tunable workload.
class WorkloadOracle {
public:
  virtual ~WorkloadOracle();

  /// The tunable space.
  virtual const ParamSpace &space() const = 0;

  /// Deterministic mean runtime of configuration \p C, in seconds.
  virtual double meanRuntimeSeconds(const Config &C) const = 0;

  /// Compilation time of configuration \p C, in seconds.
  virtual double compileSeconds(const Config &C) const = 0;

  /// Noise parameters of this workload.
  virtual const NoiseProfile &noise() const = 0;
};

/// Accumulates virtual seconds spent compiling and running binaries.
struct CostLedger {
  double CompileSeconds = 0.0; ///< total virtual compile time charged
  double RunSeconds = 0.0;     ///< total virtual runtime charged
  uint64_t Compilations = 0;   ///< distinct configurations compiled
  uint64_t Runs = 0;           ///< noisy observations drawn

  /// The paper's "evaluation time" axis: compile plus run seconds.
  double totalSeconds() const { return CompileSeconds + RunSeconds; }
};

/// Draws noisy measurements and accounts for their cost.
///
/// Noise streams are *counter-based*: observation k of configuration C is
/// a pure function of (StreamSeed, key(C), k), never of profiler state or
/// of the order in which other configurations were measured.  That makes
/// interleaved, batched, and sharded measurement all replay bit-identical
/// per-config samples — the prerequisite for parallelizing measurement.
class Profiler {
public:
  /// \p StreamSeed decorrelates noise across experiment repetitions while
  /// keeping each repetition replayable.
  Profiler(const WorkloadOracle &Oracle, uint64_t StreamSeed);

  /// Profiles \p C once: compiles it first if this profiler has not seen
  /// it before (charged once, like a cached binary), runs it, charges the
  /// observed runtime, and returns the observation.
  double measureOnce(const Config &C);

  /// Profiles \p C \p Count times and returns all observations.
  std::vector<double> measure(const Config &C, unsigned Count);

  /// Profiles every configuration of \p Batch once, in batch order:
  /// the same as calling measureOnce on each entry (duplicates in the
  /// batch receive consecutive per-config observation indices).
  std::vector<double> measureBatch(const std::vector<Config> &Batch);

  /// The value observation \p SampleIndex of \p C would have: a pure
  /// function of (StreamSeed, key(C), SampleIndex).  Does not advance the
  /// per-config counter and charges nothing.
  double observationAt(const Config &C, uint64_t SampleIndex);

  /// Number of observations taken for \p C so far.
  unsigned observationCount(const Config &C) const;

  /// Cost accounting.
  const CostLedger &ledger() const { return Ledger; }

  /// The noise-free mean (for evaluation only — a real harness would not
  /// expose this; experiment code uses it to build test sets).
  double groundTruthMean(const Config &C);

private:
  const WorkloadOracle &Oracle;
  uint64_t StreamSeed;
  CostLedger Ledger;
  // Per-config state: observation count and cached ground truth.  The
  // compile charge is tracked separately from the cache so evaluation-only
  // accessors (groundTruthMean, observationAt) can warm the cache without
  // suppressing the charge a later real measurement must pay.
  struct ConfigState {
    unsigned Observations = 0;
    double CachedMean = -1.0;
    double CachedSigmaRel = -1.0;
    bool Compiled = false;
  };
  std::unordered_map<uint64_t, ConfigState> States;

  ConfigState &stateFor(const Config &C, bool ChargeCompile);
};

} // namespace alic

#endif // ALIC_MEASURE_PROFILER_H
