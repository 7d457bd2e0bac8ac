//===- bench/bench_ablation_params.cpp - learner ablations ----*- C++ -*-===//
//
// Sensitivity of the method to its key knobs and design choices:
//
//  * particle count N (the paper uses 5000; how much smaller can the
//    ensemble get before quality degrades?);
//  * the per-example observation cap nobs (the paper caps at 35 and notes
//    correlation would want more — Section 5.2);
//  * the candidate scorer (Section 3.3): the paper picks Cohn's ALC over
//    MacKay's ALM despite ALC's higher cost, because it handles
//    heteroskedastic noise better.  The sequential plan runs under ALC,
//    ALM and uniform-random scoring on a quiet, a medium, and a very noisy
//    benchmark.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace alic;

int main() {
  printScaleBanner("bench_ablation_params: particle count, observation cap "
                   "and scorer sensitivity");
  ExperimentScale Base = ExperimentScale::fromEnv();
  Base.Repetitions = std::max(1u, Base.Repetitions / 2);

  {
    auto B = createSpaptBenchmark("gemver");
    Dataset D = benchDataset(*B, Base);
    Table Out({"particles", "final RMSE (s)", "cost (s)"});
    for (unsigned Particles : {50u, 150u, 400u, 1000u}) {
      ExperimentScale S = Base;
      S.Particles = Particles;
      RunResult R = runAveraged(*B, D, SamplingPlan::sequential(35), S,
                                BenchRunSeed);
      Out.addRow({std::to_string(Particles), formatPaperNumber(R.FinalRmse),
                  formatPaperNumber(R.TotalCostSeconds)});
      std::fprintf(stderr, "  gemver particles=%u done\n", Particles);
    }
    printBanner("gemver: particle-count sensitivity");
    Out.print();
  }

  {
    auto B = createSpaptBenchmark("correlation");
    Dataset D = benchDataset(*B, Base);
    Table Out({"observation cap", "final RMSE (s)", "revisits",
               "distinct examples"});
    for (unsigned Cap : {2u, 5u, 15u, 35u, 70u}) {
      RunResult R = runAveraged(*B, D, SamplingPlan::sequential(Cap), Base,
                                BenchRunSeed);
      Out.addRow({std::to_string(Cap), formatPaperNumber(R.FinalRmse),
                  std::to_string(R.Stats.Revisits),
                  std::to_string(R.Stats.DistinctExamples)});
      std::fprintf(stderr, "  correlation cap=%u done\n", Cap);
    }
    printBanner("correlation: observation-cap sensitivity (paper Section "
                "5.2: 35 limits correlation's attainable speedup)");
    Out.print();
  }

  {
    Table Out({"benchmark", "scorer", "final RMSE (s)", "cost (s)",
               "revisit rate"});
    for (const char *Name : {"atax", "jacobi", "correlation"}) {
      auto B = createSpaptBenchmark(Name);
      Dataset D = benchDataset(*B, Base);
      const std::pair<const char *, ScorerKind> Scorers[] = {
          {"ALC (Cohn)", ScorerKind::Alc},
          {"ALM (MacKay)", ScorerKind::Alm},
          {"random", ScorerKind::Random}};
      for (const auto &[ScorerName, Kind] : Scorers) {
        RunOptions Opt;
        Opt.Learner.Scorer = Kind;
        RunResult R = runAveraged(*B, D, SamplingPlan::sequential(35), Base,
                                  BenchRunSeed, Opt);
        double RevisitRate =
            R.Stats.Iterations
                ? double(R.Stats.Revisits) / double(R.Stats.Iterations)
                : 0.0;
        Out.addRow({Name, ScorerName, formatPaperNumber(R.FinalRmse),
                    formatPaperNumber(R.TotalCostSeconds),
                    formatString("%.2f", RevisitRate)});
      }
      std::fprintf(stderr, "  scorers on %s done\n", Name);
    }
    printBanner("ALC vs ALM vs random candidate scoring (paper Section 3.3)");
    Out.print();
    std::printf("\nexpected shape: ALC at least matches ALM; both beat "
                "random selection; ALC directs revisits where reference "
                "points concentrate.\n");
  }
  return 0;
}
