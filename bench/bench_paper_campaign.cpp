//===- bench/bench_paper_campaign.cpp - Tables 1-2, Figures 5-6 *- C++ -*-===//
//
// Renders every result of the paper that comes out of the shared campaign
// (exp/Campaign) from one run of its default cross-product — dynamic
// tree, ALC, batch 1, the three Figure 6 sampling plans, plus the
// per-benchmark noise-summary cells:
//
//  * Table 1: for each SPAPT benchmark, the lowest RMS error both the
//    35-observation baseline and the variable-observation plan reach, the
//    profiling cost each needs to first reach it, and the speedup — with
//    Figure 5's bar (the same speedup, drawn) as the last column;
//  * Table 2: the spread (min / mean / max) of the runtime variance and
//    of the 95% CI over mean ratio for 35- and 5-sample plans;
//  * Figure 6: test-set RMSE against cumulative evaluation cost for the
//    three plans on the six benchmarks the paper plots, printed row-wise
//    and written in full to fig6_curves.csv.
//
// Paper reference values are printed alongside.  Absolute costs differ
// (our substrate is an analytic machine model at reduced training
// budgets); the comparison targets the *shape*.  Every cell is
// checkpointed, so an interrupted run resumes, and a state dir an
// alic_campaign run already filled (ALIC_CAMPAIGN_DIR) renders without
// running a single experiment.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "stats/Metrics.h"
#include "support/Error.h"

#include <algorithm>

using namespace alic;

namespace {

struct PaperRow {
  const char *SearchSpace;
  double LowestRmse;
  double Speedup;
};

const std::pair<const char *, PaperRow> PaperRows[] = {
    {"adi", {"3.78e14", 0.087, 0.29}},
    {"atax", {"2.57e12", 0.097, 13.93}},
    {"bicgkernel", {"5.83e8", 0.065, 3.59}},
    {"correlation", {"3.78e14", 0.589, 7.07}},
    {"dgemv3", {"1.33e27", 0.067, 23.52}},
    {"gemver", {"1.14e16", 0.342, 26.00}},
    {"hessian", {"1.95e7", 0.006, 3.69}},
    {"jacobi", {"1.95e7", 0.076, 3.55}},
    {"lu", {"5.83e8", 0.013, 3.62}},
    {"mm", {"3.18e9", 0.042, 1.11}},
    {"mvt", {"1.95e7", 0.002, 1.18}},
};

const PaperRow &paperRow(const std::string &Name) {
  for (const auto &[N, Row] : PaperRows)
    if (Name == N)
      return Row;
  fatalError("no paper row for %s", Name.c_str());
}

void printTable1(const CampaignResult &Result) {
  printBanner("Table 1: lowest common RMS error, profiling cost, speedup "
              "(Figure 5: the speedup as a bar)");
  Table Out({"benchmark", "search space", "(paper)", "lowest common RMSE",
             "(paper)", "baseline cost (s)", "ours (s)", "speedup",
             "(paper)", "reduction of profiling cost (#)"});
  std::vector<double> Speedups;
  for (const ComboResult &Combo : Result.Combos) {
    const std::string &Name = Combo.Benchmark;
    auto B = createSpaptBenchmark(Name);
    const PlanComparison &Cmp = Combo.Speedup;
    Speedups.push_back(Cmp.Speedup);
    const PaperRow &Paper = paperRow(Name);
    // Left-aligned in a right-aligned column: pad to the 30-mark cap.
    std::string Bar(size_t(std::min(30.0, std::max(0.0, Cmp.Speedup * 2.0))),
                    '#');
    Bar.resize(30, ' ');
    Out.addRow({Name, B->space().cardinality().toScientific(3),
                Paper.SearchSpace, formatPaperNumber(Cmp.LowestCommonRmse),
                formatPaperNumber(Paper.LowestRmse),
                formatPaperNumber(Cmp.BaselineCostSeconds),
                formatPaperNumber(Cmp.OursCostSeconds),
                formatString("%.2f", Cmp.Speedup),
                formatString("%.2f", Paper.Speedup), Bar});
  }
  Out.addRow({"geometric mean", "", "", "", "", "", "",
              formatString("%.2f", geometricMean(Speedups)), "3.97", ""});
  Out.print();
  std::printf("\npaper: geometric-mean speedup 3.97, max 26x (gemver), "
              "only adi below 1 (0.29).\n");
}

void printTable2(const CampaignResult &Result) {
  printBanner("Table 2: variance and CI/mean spread per benchmark");
  Table Out({"benchmark", "var min", "var mean", "var max", "ci35 min",
             "ci35 mean", "ci35 max", "ci5 min", "ci5 mean", "ci5 max"});
  auto Fmt = [](double V) { return formatPaperNumber(V); };
  for (const NoiseSummary &Noise : Result.Noise)
    Out.addRow({Noise.Benchmark, Fmt(Noise.VarMin), Fmt(Noise.VarMean),
                Fmt(Noise.VarMax), Fmt(Noise.Ci35Min), Fmt(Noise.Ci35Mean),
                Fmt(Noise.Ci35Max), Fmt(Noise.Ci5Min), Fmt(Noise.Ci5Mean),
                Fmt(Noise.Ci5Max)});
  Out.print();
  std::printf(
      "\npaper (35-sample CI/mean means): adi 2.25e-3, atax 2.31e-3, "
      "bicgkernel 1.52e-3, correlation 0.03, dgemv3 2.25e-3,\n"
      "       gemver 4.81e-3, hessian 1.33e-3, jacobi 1.29e-3, lu 6.89e-4, "
      "mm 7.44e-4, mvt 8.28e-4.\n"
      "shape: correlation noisiest by orders of magnitude; lu/mm/mvt "
      "quiet; every benchmark spans several decades min->max.\n");
}

void printFigure6(const CampaignSpec &Spec, const CampaignResult &Result) {
  const std::vector<std::string> Plotted = {"adi",    "atax",   "correlation",
                                            "gemver", "jacobi", "mvt"};
  Table Csv({"benchmark", "plan", "iteration", "cost_seconds", "rmse"});
  for (const ComboResult &Combo : Result.Combos) {
    if (std::find(Plotted.begin(), Plotted.end(), Combo.Benchmark) ==
        Plotted.end())
      continue;
    printBanner("Figure 6: " + Combo.Benchmark);
    const std::pair<const char *, const RunResult *> Plans[] = {
        {"all observations",
         Combo.planResult(Spec, SamplingPlan::fixed(35))},
        {"one observation", Combo.planResult(Spec, SamplingPlan::fixed(1))},
        {"variable observations",
         Combo.planResult(Spec,
                          SamplingPlan::sequential(Spec.Scale.ObservationCap))}};
    for (const auto &[PlanName, Run] : Plans)
      if (!Run)
        fatalError("campaign spec lacks the '%s' plan", PlanName);
    Table Out({"plan", "iter", "cost (s)", "RMSE (s)"});
    for (const auto &[PlanName, Run] : Plans) {
      size_t Stride = std::max<size_t>(1, Run->Curve.size() / 8);
      for (size_t I = 0; I < Run->Curve.size(); I += Stride) {
        const CurvePoint &P = Run->Curve[I];
        Out.addRow({PlanName, std::to_string(P.Iteration),
                    formatPaperNumber(P.CostSeconds),
                    formatPaperNumber(P.Rmse)});
      }
      const CurvePoint &End = Run->Curve.back();
      Out.addRow({PlanName, std::to_string(End.Iteration),
                  formatPaperNumber(End.CostSeconds),
                  formatPaperNumber(End.Rmse)});
      for (const CurvePoint &P : Run->Curve)
        Csv.addRow({Combo.Benchmark, PlanName, std::to_string(P.Iteration),
                    formatString("%.3f", P.CostSeconds),
                    formatString("%.6f", P.Rmse)});
    }
    Out.print();
  }

  if (Csv.writeCsv("fig6_curves.csv"))
    std::printf("\nfull series written to fig6_curves.csv\n");
  std::printf(
      "paper shapes: adi — variable trails the 35-obs baseline but beats "
      "one-obs' plateau; atax/gemver — variable matches one-obs and both "
      "dwarf the baseline's cost; correlation — error stays high for all "
      "plans, one-obs worst; jacobi — variable slightly cautious but far "
      "cheaper than fixed; mvt — small gaps between all plans.\n");
}

} // namespace

int main() {
  printScaleBanner("bench_paper_campaign: Tables 1-2 and Figures 5-6 from "
                   "one campaign");

  CampaignSpec Spec = benchCampaignSpec();
  Spec.NoiseCells = true;
  CampaignResult Result = runBenchCampaign(Spec);

  printTable1(Result);
  printTable2(Result);
  printFigure6(Spec, Result);
  return 0;
}
