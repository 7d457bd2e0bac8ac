//===- bench/bench_machine_micro.cpp - substrate throughput ---*- C++ -*-===//
//
// Timed loops over the simulation substrate: analytic cost-model
// evaluation, virtual measurement draws, and distinct configuration
// sampling.  These bound the cost of dataset generation and of each
// learner iteration.  Loop counts are fixed, so every run does the same
// work.
//
// Emits BENCH_machine.json.  tools/check_bench.py gates the file for
// presence; its rates are wall clock and classified out of the default
// regression gate.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "measure/NoiseModel.h"

#include <cstdio>
#include <vector>

using namespace alic;

namespace {

struct MicroRow {
  const char *Name;
  const char *Item; ///< what one counted item is
  size_t Items;
  double ItemsPerSecond;
};

} // namespace

int main() {
  std::vector<MicroRow> Rows;
  // Times Calls calls of Call, each worth ItemsPerCall items.
  auto Time = [&](const char *Name, const char *Item, size_t Calls,
                  size_t ItemsPerCall, auto &&Call) {
    double Seconds = timeReps(unsigned(Calls), Call);
    Rows.push_back(
        {Name, Item, Calls * ItemsPerCall, double(ItemsPerCall) / Seconds});
  };

  auto Mm = createSpaptBenchmark("mm");
  Rng ConfigRng(5);
  std::vector<Config> Configs = Mm->space().sampleDistinct(ConfigRng, 64);
  size_t NextConfig = 0;
  Time("cost_model_evaluate", "mm evaluation", 50000, 1, [&] {
    Mm->meanRuntimeSeconds(Configs[NextConfig++ % Configs.size()]);
  });

  auto Suite = createSpaptSuite();
  Rng SuiteRng(7);
  Time("cost_model_suite", "evaluation, one per benchmark", 2000,
       Suite.size(), [&] {
         for (const auto &B : Suite)
           B->meanRuntimeSeconds(B->space().sample(SuiteRng));
       });

  auto Gemver = createSpaptBenchmark("gemver");
  Config Baseline = Gemver->baselineConfig();
  double Mean = Gemver->meanRuntimeSeconds(Baseline);
  double Sigma = noiseSigmaRel(Gemver->noise(), Gemver->space(), Baseline);
  uint64_t Draw = 0;
  Time("draw_measurement", "gemver draw", 500000, 1,
       [&] { drawMeasurement(Gemver->noise(), Mean, Sigma, 42, Draw++); });

  auto Dgemv3 = createSpaptBenchmark("dgemv3"); // the 1.33e27-point space
  Time("sample_distinct_configs", "dgemv3 configuration, 256 per call", 500,
       256, [&] {
         Rng SampleRng(11);
         Dgemv3->space().sampleDistinct(SampleRng, 256);
       });

  Table Out({"op", "item", "items", "items/s"});
  for (const MicroRow &R : Rows)
    Out.addRow({R.Name, R.Item, std::to_string(R.Items),
                formatString("%.0f", R.ItemsPerSecond)});
  Out.print();

  std::FILE *Json = std::fopen("BENCH_machine.json", "w");
  if (Json) {
    std::fprintf(Json, "{\n  \"schema\": \"alic-machine-micro-v1\",\n"
                       "  \"ops\": {\n");
    for (size_t I = 0; I != Rows.size(); ++I)
      std::fprintf(Json,
                   "    \"%s\": {\"items\": %zu, "
                   "\"items_per_second\": %.0f}%s\n",
                   Rows[I].Name, Rows[I].Items, Rows[I].ItemsPerSecond,
                   I + 1 == Rows.size() ? "" : ",");
    std::fprintf(Json, "  }\n}\n");
    std::fclose(Json);
    std::printf("written: BENCH_machine.json\n");
  }
  return 0;
}
