//===- bench/bench_paper_noise.cpp - Figures 1-2, Sections 2, 4.3 *- C++ -*-===//
//
// Renders the paper's measurement-noise evidence straight from the
// benchmarks' noise models (no learner runs):
//
//  * Figure 1 and Section 2: over the 30x30 plane of unroll factors for
//    mm's loops i1 and i2 (all other parameters at the -O2 baseline),
//    (a) the mean absolute error of a single observation, (b) the residual
//    error of the "optimal" adaptive sample count, (c) the number of
//    samples that adaptive plan needs per point — and the totals Section 2
//    quotes: a fixed 35-sample plan costs 35 x 30 x 30 = 31,500 runs, the
//    adaptive plan roughly half (15,131 in the paper).  The paper's
//    threshold is 0.1 ms at ~80 ms mean runtimes; we use the same relative
//    threshold (0.125% of the per-point mean).  The per-cell grid goes to
//    fig1_mm_plane.csv for re-plotting.
//  * Figure 2: adi's runtime against the unroll factor of its first sweep
//    loop, one noisy observation per point.  The pattern the paper
//    highlights — a plateau, then a climb that levels off at a higher
//    plateau past unroll factor ~10 — comes from the recurrence chain the
//    sweep carries: unrolling cannot break it and inflates live ranges.
//  * Section 4.3: the fraction of examples whose 95% CI/mean ratio breaks
//    the 1% and 5% validation thresholds at 35, 5, and 2 observations.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "measure/NoiseModel.h"
#include "stats/OnlineStats.h"

#include <cmath>

using namespace alic;

namespace {

void printFigure1() {
  printBanner("Figure 1 / Section 2: error and sample size over the mm "
              "unroll plane");
  auto B = createSpaptBenchmark("mm");
  const unsigned MaxObs = 35;
  const double RelThreshold = 0.00125; // 0.1 ms on the paper's ~80 ms mean

  Table GridCsv({"u_i1", "u_i2", "mean_runtime", "mae_one_sample",
                 "mae_adaptive", "samples_adaptive"});
  OnlineStats MaeOne, MaeAdaptive, Samples;
  double TotalNaive = 0.0, TotalAdaptive = 0.0;

  Config C = B->baselineConfig();
  for (int U1 = 1; U1 <= 30; ++U1) {
    for (int U2 = 1; U2 <= 30; ++U2) {
      C[0] = uint16_t(U1 - 1); // U_i1 ordinal
      C[1] = uint16_t(U2 - 1); // U_i2 ordinal
      double Mean = B->meanRuntimeSeconds(C);
      double Sigma = noiseSigmaRel(B->noise(), B->space(), C);
      uint64_t Stream = hashCombine({0xf161ull, B->space().key(C)});

      OnlineStats Runs;
      std::vector<double> Obs;
      for (unsigned I = 0; I != MaxObs; ++I) {
        Obs.push_back(drawMeasurement(B->noise(), Mean, Sigma, Stream, I));
        Runs.add(Obs.back());
      }
      double FullMean = Runs.mean();

      // (a) single-observation MAE: E|y_i - mean|.
      double Mae1 = 0.0;
      for (double O : Obs)
        Mae1 += std::fabs(O - FullMean);
      Mae1 /= double(Obs.size());

      // (b)+(c): smallest prefix whose running mean stays within the
      // threshold of the full mean.
      double Threshold = RelThreshold * FullMean;
      unsigned Needed = MaxObs;
      OnlineStats Prefix;
      for (unsigned I = 0; I != MaxObs; ++I) {
        Prefix.add(Obs[I]);
        if (std::fabs(Prefix.mean() - FullMean) <= Threshold) {
          Needed = I + 1;
          break;
        }
      }
      OnlineStats Adaptive;
      for (unsigned I = 0; I != Needed; ++I)
        Adaptive.add(Obs[I]);
      double MaeA = std::fabs(Adaptive.mean() - FullMean);

      MaeOne.add(Mae1);
      MaeAdaptive.add(MaeA);
      Samples.add(double(Needed));
      TotalNaive += MaxObs;
      TotalAdaptive += Needed;
      GridCsv.addRow({std::to_string(U1), std::to_string(U2),
                      formatPaperNumber(Mean), formatPaperNumber(Mae1),
                      formatPaperNumber(MaeA), std::to_string(Needed)});
    }
  }

  Table Summary({"quantity", "min", "mean", "max"});
  Summary.addRow({"MAE, 1 sample (s)", formatPaperNumber(MaeOne.min()),
                  formatPaperNumber(MaeOne.mean()),
                  formatPaperNumber(MaeOne.max())});
  Summary.addRow({"MAE, adaptive (s)", formatPaperNumber(MaeAdaptive.min()),
                  formatPaperNumber(MaeAdaptive.mean()),
                  formatPaperNumber(MaeAdaptive.max())});
  Summary.addRow({"samples, adaptive", formatPaperNumber(Samples.min()),
                  formatPaperNumber(Samples.mean()),
                  formatPaperNumber(Samples.max())});
  Summary.print();

  std::printf("\nSection 2 total runs: naive 35/point = %.0f, adaptive = "
              "%.0f (%.1f%% of naive)\n",
              TotalNaive, TotalAdaptive, 100.0 * TotalAdaptive / TotalNaive);
  std::printf("paper: 31,500 naive vs 15,131 adaptive (48%%); most points "
              "need one sample, noisy pockets need many.\n");
  if (GridCsv.writeCsv("fig1_mm_plane.csv"))
    std::printf("per-cell grid written to fig1_mm_plane.csv\n");
}

void printFigure2() {
  printBanner("Figure 2: adi runtime vs unroll factor, one observation per "
              "point");
  auto B = createSpaptBenchmark("adi");

  Table Out({"unroll i1", "observed runtime (s)", "true mean (s)"});
  Config C = B->baselineConfig();
  double First = 0.0, Last = 0.0;
  for (int U = 1; U <= 30; ++U) {
    C[1] = uint16_t(U - 1); // U_j1: the first sweep's recurrence loop
    double Mean = B->meanRuntimeSeconds(C);
    double Sigma = noiseSigmaRel(B->noise(), B->space(), C);
    double Obs = drawMeasurement(B->noise(), Mean, Sigma,
                                 hashCombine({0xf162ull, uint64_t(U)}), 0);
    Out.addRow({std::to_string(U), formatString("%.3f", Obs),
                formatString("%.3f", Mean)});
    if (U == 1)
      First = Mean;
    Last = Mean;
  }
  Out.print();
  std::printf("\nclimb from %.3fs to %.3fs (%.0f%%); paper: 2.1s plateau "
              "climbing to 3.1s (+48%%) past unroll ~10, pattern visible "
              "through single-sample noise.\n",
              First, Last, 100.0 * (Last - First) / First);
}

void printSection43() {
  printBanner("Section 4.3: CI-threshold failure rates across the suite");
  size_t PerBenchmark = 250;
  size_t Total = 0;
  size_t Break1At35 = 0, Break5At35 = 0, Break5At5 = 0, Break5At2 = 0;
  for (const std::string &Name : spaptBenchmarkNames()) {
    auto B = createSpaptBenchmark(Name);
    Rng R(hashCombine({0xc1ull, BenchDatasetSeed}));
    std::vector<Config> Configs = B->space().sampleDistinct(R, PerBenchmark);
    for (const Config &C : Configs) {
      double Mean = B->meanRuntimeSeconds(C);
      double Sigma = noiseSigmaRel(B->noise(), B->space(), C);
      uint64_t Stream = hashCombine({0xc1cull, B->space().key(C)});
      OnlineStats S35, S5, S2;
      for (unsigned I = 0; I != 35; ++I) {
        double Obs = drawMeasurement(B->noise(), Mean, Sigma, Stream, I);
        S35.add(Obs);
        if (I < 5)
          S5.add(Obs);
        if (I < 2)
          S2.add(Obs);
      }
      ++Total;
      Break1At35 += S35.ciOverMean() > 0.01;
      Break5At35 += S35.ciOverMean() > 0.05;
      Break5At5 += S5.ciOverMean() > 0.05;
      Break5At2 += S2.ciOverMean() > 0.05;
    }
  }
  Table Out({"validation rule", "ours", "paper"});
  auto Pct = [&](size_t N) {
    return formatString("%.1f%%", 100.0 * double(N) / double(Total));
  };
  Out.addRow({"CI/mean > 1% with 35 obs", Pct(Break1At35), "5%"});
  Out.addRow({"CI/mean > 5% with 35 obs", Pct(Break5At35), "0.5%"});
  Out.addRow({"CI/mean > 5% with 5 obs", Pct(Break5At5), "3.3%"});
  Out.addRow({"CI/mean > 5% with 2 obs", Pct(Break5At2), "5%"});
  Out.print();
  std::printf("\nshape: failures grow as samples shrink; even 35 "
              "observations is not always enough.\n");
}

} // namespace

int main() {
  printScaleBanner("bench_paper_noise: Figures 1-2 and the Section 2 and "
                   "4.3 noise statistics");
  printFigure1();
  printFigure2();
  printSection43();
  return 0;
}
