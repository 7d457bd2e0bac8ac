//===- measure/Profiler.cpp -----------------------------------*- C++ -*-===//

#include "measure/Profiler.h"

#include "support/Error.h"

#include <cassert>

using namespace alic;

WorkloadOracle::~WorkloadOracle() = default;

Profiler::Profiler(const WorkloadOracle &Oracle, uint64_t StreamSeed)
    : Oracle(Oracle), StreamSeed(StreamSeed) {}

Profiler::ConfigState &Profiler::stateFor(const Config &C,
                                          bool ChargeCompile) {
  uint64_t Key = Oracle.space().key(C);
  auto [It, Inserted] = States.try_emplace(Key);
  ConfigState &State = It->second;
  if (State.CachedMean < 0.0) {
    State.CachedMean = Oracle.meanRuntimeSeconds(C);
    State.CachedSigmaRel = noiseSigmaRel(Oracle.noise(), Oracle.space(), C);
  }
  if (ChargeCompile && !State.Compiled) {
    State.Compiled = true;
    Ledger.CompileSeconds += Oracle.compileSeconds(C);
    ++Ledger.Compilations;
  }
  return State;
}

double Profiler::observationAt(const Config &C, uint64_t SampleIndex) {
  // Pure counter-based stream: (StreamSeed, config key, index) fully
  // determine the sample, so measurement order can never change it.
  ConfigState &State = stateFor(C, /*ChargeCompile=*/false);
  uint64_t Stream = hashCombine({StreamSeed, Oracle.space().key(C)});
  return drawMeasurement(Oracle.noise(), State.CachedMean,
                         State.CachedSigmaRel, Stream, SampleIndex);
}

double Profiler::measureOnce(const Config &C) {
  ConfigState &State = stateFor(C, /*ChargeCompile=*/true);
  uint64_t Stream = hashCombine({StreamSeed, Oracle.space().key(C)});
  double Observation =
      drawMeasurement(Oracle.noise(), State.CachedMean, State.CachedSigmaRel,
                      Stream, State.Observations);
  ++State.Observations;
  Ledger.RunSeconds += Observation;
  ++Ledger.Runs;
  return Observation;
}

std::vector<double> Profiler::measure(const Config &C, unsigned Count) {
  std::vector<double> Observations;
  Observations.reserve(Count);
  for (unsigned I = 0; I != Count; ++I)
    Observations.push_back(measureOnce(C));
  return Observations;
}

std::vector<double> Profiler::measureBatch(const std::vector<Config> &Batch) {
  std::vector<double> Observations;
  Observations.reserve(Batch.size());
  for (const Config &C : Batch)
    Observations.push_back(measureOnce(C));
  return Observations;
}

unsigned Profiler::observationCount(const Config &C) const {
  auto It = States.find(Oracle.space().key(C));
  return It == States.end() ? 0 : It->second.Observations;
}

double Profiler::groundTruthMean(const Config &C) {
  // Does not charge the ledger: evaluation-only accessor.
  return stateFor(C, /*ChargeCompile=*/false).CachedMean;
}
