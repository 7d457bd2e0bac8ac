//===- bench/bench_machine_micro.cpp - substrate throughput ---*- C++ -*-===//
//
// google-benchmark micro-benchmarks of the simulation substrate: analytic
// cost-model evaluation, virtual measurement draws, and distinct
// configuration sampling.  These bound the cost of dataset generation and
// of each learner iteration.
//
//===----------------------------------------------------------------------===//

#include "machine/CostModel.h"
#include "measure/NoiseModel.h"
#include "spapt/Suite.h"

#include <benchmark/benchmark.h>

using namespace alic;

namespace {

void BM_CostModelEvaluate(benchmark::State &State) {
  auto B = createSpaptBenchmark("mm");
  Rng R(5);
  std::vector<Config> Configs = B->space().sampleDistinct(R, 64);
  size_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        B->meanRuntimeSeconds(Configs[I % Configs.size()]));
    ++I;
  }
}

void BM_CostModelAllBenchmarks(benchmark::State &State) {
  auto Suite = createSpaptSuite();
  Rng R(7);
  for (auto _ : State)
    for (const auto &B : Suite)
      benchmark::DoNotOptimize(B->meanRuntimeSeconds(B->space().sample(R)));
  State.SetItemsProcessed(int64_t(State.iterations()) * 11);
}

void BM_DrawMeasurement(benchmark::State &State) {
  auto B = createSpaptBenchmark("gemver");
  Config C = B->baselineConfig();
  double Mean = B->meanRuntimeSeconds(C);
  double Sigma = noiseSigmaRel(B->noise(), B->space(), C);
  uint64_t I = 0;
  for (auto _ : State) {
    benchmark::DoNotOptimize(
        drawMeasurement(B->noise(), Mean, Sigma, 42, I));
    ++I;
  }
}

void BM_SampleDistinctConfigs(benchmark::State &State) {
  auto B = createSpaptBenchmark("dgemv3"); // the 1.33e27-point space
  for (auto _ : State) {
    Rng R(11);
    benchmark::DoNotOptimize(B->space().sampleDistinct(R, 256).size());
  }
}

} // namespace

BENCHMARK(BM_CostModelEvaluate);
BENCHMARK(BM_CostModelAllBenchmarks);
BENCHMARK(BM_DrawMeasurement);
BENCHMARK(BM_SampleDistinctConfigs);

BENCHMARK_MAIN();
