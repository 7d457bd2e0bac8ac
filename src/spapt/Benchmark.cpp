//===- spapt/Benchmark.cpp ------------------------------------*- C++ -*-===//

#include "spapt/Benchmark.h"

#include "transform/TransformPlan.h"

using namespace alic;

SpaptBenchmark::SpaptBenchmark(KernelBundle Bundle, NoiseProfile Noise,
                               double RuntimeCalibration, MachineDesc Machine)
    : K(std::move(Bundle.K)), Space(std::move(Bundle.Params)),
      Noise(Noise), RuntimeCalibration(RuntimeCalibration),
      Model(Machine) {}

double SpaptBenchmark::meanRuntimeSeconds(const Config &C) const {
  TransformPlan Plan = TransformPlan::fromConfig(Space, C);
  return Model.evaluate(K, Plan).RuntimeSeconds * RuntimeCalibration;
}

double SpaptBenchmark::compileSeconds(const Config &C) const {
  TransformPlan Plan = TransformPlan::fromConfig(Space, C);
  return Model.evaluate(K, Plan).CompileSeconds;
}

Config SpaptBenchmark::baselineConfig() const {
  Config C(Space.numParams(), 0);
  for (size_t I = 0; I != Space.numParams(); ++I) {
    // Ordinal of value 1 (all factor parameters include 1).
    const std::vector<int> &Values = Space.param(I).values();
    uint16_t Ord = 0;
    for (size_t V = 0; V != Values.size(); ++V)
      if (Values[V] == 1) {
        Ord = static_cast<uint16_t>(V);
        break;
      }
    C[I] = Ord;
  }
  return C;
}
