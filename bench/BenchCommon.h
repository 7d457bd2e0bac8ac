//===- bench/BenchCommon.h - Shared bench-harness helpers -----*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the bench binaries: the wall-clock timer, scale
/// banner, dataset construction, and the shared campaign the paper
/// renderers read.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_BENCH_BENCHCOMMON_H
#define ALIC_BENCH_BENCHCOMMON_H

#include "exp/Campaign.h"
#include "exp/Dataset.h"
#include "exp/Runner.h"
#include "exp/Scale.h"
#include "spapt/Suite.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/Table.h"

#include <chrono>
#include <cstdio>

namespace alic {

/// Wall-clock seconds per call of \p F over \p Reps calls.  At Reps > 1
/// one extra call runs first, outside the clock, to warm caches.
template <typename Fn> double timeReps(unsigned Reps, Fn &&F) {
  if (Reps > 1)
    F();
  auto Start = std::chrono::steady_clock::now();
  for (unsigned I = 0; I != Reps; ++I)
    F();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
             .count() /
         Reps;
}

/// Seed shared by all replication binaries (datasets decouple from the
/// learners' measurement streams internally).  Aliases the campaign
/// defaults so the renderers and alic_campaign share ledger cells.
inline constexpr uint64_t BenchDatasetSeed = CampaignDatasetSeed;
inline constexpr uint64_t BenchRunSeed = CampaignRunSeed;

/// Prints the standard scale banner.
inline void printScaleBanner(const char *Binary) {
  ExperimentScale S = ExperimentScale::fromEnv();
  std::printf("# %s  [ALIC_SCALE=%s: %zu configs, nmax=%u, nc=%u, N=%u "
              "particles, %u repetition(s)]\n",
              Binary, scaleName(getScaleKind()), S.NumConfigs,
              S.MaxTrainingExamples, S.CandidatesPerIteration, S.Particles,
              S.Repetitions);
}

/// Builds the dataset for one benchmark at the ambient scale.
inline Dataset benchDataset(const SpaptBenchmark &B,
                            const ExperimentScale &S) {
  return buildDataset(B, S.NumConfigs, S.TrainFraction, S.MeanObservations,
                      BenchDatasetSeed);
}

/// The campaign-backed benches are thin renderers over one shared
/// campaign (exp/Campaign): this spec covers the default cross-product —
/// dynamic tree, ALC, batch 1, all eleven benchmarks — with the three
/// Figure 6 sampling plans at the ambient scale, using the shared
/// BenchDatasetSeed/BenchRunSeed so results match the historical
/// standalone runs exactly.
inline CampaignSpec benchCampaignSpec() {
  CampaignSpec Spec;
  Spec.Scale = ExperimentScale::fromEnv();
  Spec.ScaleName = scaleName(getScaleKind());
  Spec.Plans = defaultCampaignPlans(Spec.Scale);
  Spec.DatasetSeed = BenchDatasetSeed;
  Spec.BaseRunSeed = BenchRunSeed;
  // Only Table 2 (bench_paper_campaign) reads the noise summaries; it
  // opts back in.
  Spec.NoiseCells = false;
  return Spec;
}

/// Campaign state shared by every renderer at one scale, so e.g.
/// bench_paper_campaign and bench_ablation_query compute their common
/// cells once.
/// Override the directory with ALIC_CAMPAIGN_DIR and the cell-level
/// worker count with ALIC_THREADS.
inline CampaignOptions benchCampaignOptions() {
  CampaignOptions Options;
  Options.StateDir = getEnvString(
      "ALIC_CAMPAIGN_DIR", defaultCampaignStateDir(scaleName(getScaleKind())));
  int64_t Threads = getEnvInt("ALIC_THREADS", 0);
  Options.Threads = Threads > 0 ? unsigned(Threads) : 0; // negatives = inline
  return Options;
}

/// Runs (or resumes) \p Spec under the shared bench campaign state and
/// returns the aggregate; aborts if the campaign cannot complete (the
/// renderers never run with MaxCells).
inline CampaignResult runBenchCampaign(const CampaignSpec &Spec) {
  CampaignOptions Options = benchCampaignOptions();
  CampaignResult Result;
  if (!runCampaign(Spec, Options, Result))
    fatalError("bench campaign did not complete (state dir %s)",
               Options.StateDir.c_str());
  return Result;
}

} // namespace alic

#endif // ALIC_BENCH_BENCHCOMMON_H
