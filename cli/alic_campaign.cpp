//===- cli/alic_campaign.cpp - Campaign orchestrator CLI ------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
//
// Drives exp/Campaign: one resumable command for the paper's full
// reproduction cross-product.  Typical use:
//
//   ALIC_SCALE=smoke alic_campaign --models=dynatree,gp --scorers=alm,alc
//       --seeds=2 --threads=8 --state-dir=camp --out=BENCH_campaign.json
//
// Kill it at any point; re-running the same command skips every completed
// cell and produces a byte-identical BENCH_campaign.json.  --max-cells=K
// attempts at most K missing cells (exit code 75, EX_TEMPFAIL) for
// deterministic interruption in tests and CI.
//
//===----------------------------------------------------------------------===//

#include "exp/Campaign.h"
#include "spapt/Suite.h"
#include "support/Env.h"
#include "support/Format.h"
#include "support/Parse.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

using namespace alic;

namespace {

/// Exit code when --max-cells interrupted the campaign before completion.
constexpr int ExitIncomplete = 75; // EX_TEMPFAIL: retry (resume) later

/// Exit code when cells were quarantined (EX_IOERR): by ledger I/O or
/// lease claim failures, which re-running the same command retries, or
/// by conflicting ledger lines, which it does not.  The campaign
/// finished every other cell.
constexpr int ExitQuarantined = 74;

std::vector<std::string> splitList(const std::string &Csv) {
  std::vector<std::string> Parts;
  size_t Pos = 0;
  while (Pos <= Csv.size()) {
    size_t Comma = Csv.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Csv.size();
    if (Comma > Pos)
      Parts.push_back(Csv.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Parts;
}

[[noreturn]] void usage(const char *Binary, const char *Complaint) {
  if (Complaint)
    std::fprintf(stderr, "error: %s\n\n", Complaint);
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "Sharded, checkpointable experiment campaign over the SPAPT suite.\n"
      "Scale comes from ALIC_SCALE (smoke|bench|paper; default bench).\n"
      "List flags take distinct comma-separated entries.\n\n"
      "  --benchmarks=a,b,...  subset of benchmarks (default: all eleven)\n"
      "  --models=LIST         %s (default: dynatree)\n"
      "  --scorers=LIST        %s (default: alc)\n"
      "  --batches=LIST        step batch sizes (default: 1)\n"
      "  --policies=LIST       query policies: always, alm[:abs[:rel]],\n"
      "                        cost[:c0[:c1]] (default: always)\n"
      "  --seeds=N             repetitions per combo (default: scale's)\n"
      "  --threads=N|auto      scheduler workers; cells run as tasks and\n"
      "                        fork their inner shards onto the same pool\n"
      "                        (auto = hardware concurrency; 0 = inline)\n"
      "  --state-dir=DIR       checkpoint ledgers + dataset cache location\n"
      "                        (default: alic-campaign-<scale>)\n"
      "  --out=PATH            aggregate JSON (default: BENCH_campaign.json)\n"
      "  --max-cells=K         attempt at most K missing cells, exit %d\n"
      "                        (resume by re-running; 0 = run to completion)\n"
      "  --shuffle=SEED        run each range's missing cells in shuffled\n"
      "                        order\n"
      "  --no-noise            skip the per-benchmark noise-summary cells\n"
      "\nScale-out (N independent processes, one spec — see ARCHITECTURE.md):\n"
      "  --lease-claim         claim cell ranges dynamically by locking\n"
      "                        lease files in <state-dir>/leases; a dead\n"
      "                        worker's ranges are free at once; returns\n"
      "                        when the whole spec is in the union of\n"
      "                        worker ledgers\n"
      "  --lease-range-cells=K cells per claimable range, K >= 1 (16);\n"
      "                        needs --lease-claim\n"
      "  --worker-id=ID        this worker's ledger tag, cells.<ID>.jsonl\n"
      "                        (default w<pid>); needs --lease-claim\n"
      "Every run reads the union of the state dir's cells*.jsonl ledgers;\n"
      "a plain run after the workers writes the aggregate to --out.\n",
      Binary, tokenList(ModelTokens, ",").c_str(),
      tokenList(ScorerTokens, ",").c_str(), ExitIncomplete);
  std::exit(2);
}

/// The value of count flag \p Flag, in [\p Min, \p Max]; exits through
/// usage() otherwise.
uint64_t countFlag(const char *Binary, const char *Flag,
                   const std::string &Text, uint64_t Min = 0,
                   uint64_t Max = std::numeric_limits<unsigned>::max()) {
  uint64_t Value = 0;
  if (!parseCount(Text, Max, Value) || Value < Min)
    usage(Binary, formatString("bad %s value '%s' (want an integer in "
                               "[%llu, %llu])",
                               Flag, Text.c_str(), (unsigned long long)Min,
                               (unsigned long long)Max)
                      .c_str());
  return Value;
}

/// Parses list flag \p Flag entry by entry: \p ParseOne(Text, Value,
/// Token) reads one entry and names its canonical token.  An empty list
/// exits through usage() (it would collide with the "empty means the
/// default" spec fields), and so does a repeated entry (its cells would
/// run once but be reported twice).
template <typename T, typename ParseFn>
std::vector<T> listFlag(const char *Binary, const char *Flag,
                        const std::string &Csv, ParseFn ParseOne) {
  std::vector<T> Values;
  std::vector<std::string> Tokens;
  for (const std::string &Text : splitList(Csv)) {
    T Value{};
    std::string Token;
    if (!ParseOne(Text, Value, Token))
      usage(Binary, formatString("unknown %s entry '%s'", Flag, Text.c_str())
                        .c_str());
    if (std::find(Tokens.begin(), Tokens.end(), Token) != Tokens.end())
      usage(Binary, formatString("%s lists '%s' twice", Flag, Token.c_str())
                        .c_str());
    Tokens.push_back(Token);
    Values.push_back(Value);
  }
  if (Values.empty())
    usage(Binary, formatString("%s= given with no entries", Flag).c_str());
  return Values;
}

} // namespace

int main(int argc, char **argv) {
  // An unknown scale is refused before any work, never run as the default.
  ScaleKind Scale;
  if (!parseScaleKind(getEnvString("ALIC_SCALE", "bench"), Scale)) {
    std::fprintf(stderr, "%s: ALIC_SCALE=%s is not one of smoke|bench|paper\n",
                 argv[0], std::getenv("ALIC_SCALE"));
    return 2;
  }
  CampaignSpec Spec;
  Spec.Scale = ExperimentScale::preset(Scale);
  Spec.ScaleName = scaleName(Scale);
  Spec.Plans = defaultCampaignPlans(Spec.Scale);

  CampaignOptions Options;
  Options.StateDir = defaultCampaignStateDir(Spec.ScaleName);
  std::string OutPath = "BENCH_campaign.json";
  const char *LeaseOnlyFlag = nullptr; // the last flag that needs --lease-claim

  for (int I = 1; I != argc; ++I) {
    std::string Value;
    if (parseFlag(argv[I], "--benchmarks", Value)) {
      const std::vector<std::string> &Known = spaptBenchmarkNames();
      Spec.Benchmarks = listFlag<std::string>(
          argv[0], "--benchmarks", Value,
          [&](const std::string &Text, std::string &Name, std::string &Token) {
            Name = Token = Text;
            return std::find(Known.begin(), Known.end(), Text) != Known.end();
          });
    } else if (parseFlag(argv[I], "--models", Value)) {
      Spec.Models = listFlag<ModelKind>(
          argv[0], "--models", Value,
          [](const std::string &Text, ModelKind &Kind, std::string &Token) {
            Token = Text;
            return parseToken(ModelTokens, Text, Kind);
          });
    } else if (parseFlag(argv[I], "--scorers", Value)) {
      Spec.Scorers = listFlag<ScorerKind>(
          argv[0], "--scorers", Value,
          [](const std::string &Text, ScorerKind &Kind, std::string &Token) {
            Token = Text;
            return parseToken(ScorerTokens, Text, Kind);
          });
    } else if (parseFlag(argv[I], "--batches", Value)) {
      Spec.BatchSizes = listFlag<unsigned>(
          argv[0], "--batches", Value,
          [&](const std::string &Text, unsigned &Batch, std::string &Token) {
            Batch = unsigned(countFlag(argv[0], "--batches", Text, 1));
            Token = std::to_string(Batch);
            return true;
          });
    } else if (parseFlag(argv[I], "--policies", Value)) {
      Spec.Policies = listFlag<QueryPolicyConfig>(
          argv[0], "--policies", Value,
          [](const std::string &Text, QueryPolicyConfig &Policy,
             std::string &Token) {
            if (!parseQueryPolicy(Text, Policy))
              return false;
            Token = queryPolicyToken(Policy);
            return true;
          });
    } else if (parseFlag(argv[I], "--seeds", Value)) {
      Spec.Repetitions = unsigned(countFlag(argv[0], "--seeds", Value, 1));
    } else if (parseFlag(argv[I], "--threads", Value)) {
      if (!parseThreads(Value, Options.Threads))
        usage(argv[0], "bad --threads value (want an integer or auto)");
    } else if (parseFlag(argv[I], "--state-dir", Value)) {
      Options.StateDir = Value;
    } else if (parseFlag(argv[I], "--out", Value)) {
      OutPath = Value;
    } else if (parseFlag(argv[I], "--max-cells", Value)) {
      Options.MaxCells = size_t(countFlag(argv[0], "--max-cells", Value, 0,
                                          std::numeric_limits<size_t>::max()));
    } else if (parseFlag(argv[I], "--shuffle", Value)) {
      Options.ShuffleSeed = countFlag(argv[0], "--shuffle", Value, 0,
                                      std::numeric_limits<uint64_t>::max());
    } else if (std::strcmp(argv[I], "--no-noise") == 0) {
      Spec.NoiseCells = false;
    } else if (std::strcmp(argv[I], "--lease-claim") == 0) {
      Options.LeaseClaim = true;
    } else if (parseFlag(argv[I], "--lease-range-cells", Value)) {
      LeaseOnlyFlag = "--lease-range-cells";
      Options.LeaseRangeCells =
          unsigned(countFlag(argv[0], "--lease-range-cells", Value, 1));
    } else if (parseFlag(argv[I], "--worker-id", Value)) {
      if (Value.empty() ||
          Value.find_first_of("/\n") != std::string::npos)
        usage(argv[0], "--worker-id must be a non-empty filename fragment");
      LeaseOnlyFlag = "--worker-id";
      Options.WorkerId = Value;
    } else if (std::strcmp(argv[I], "--help") == 0 ||
               std::strcmp(argv[I], "-h") == 0) {
      usage(argv[0], nullptr);
    } else {
      usage(argv[0], (std::string("unknown option: ") + argv[I]).c_str());
    }
  }

  // Both flags only steer lease claiming: refuse them rather than ignore
  // them.
  if (LeaseOnlyFlag && !Options.LeaseClaim)
    usage(argv[0],
          formatString("%s needs --lease-claim", LeaseOnlyFlag).c_str());

  std::printf("# alic_campaign  [ALIC_SCALE=%s] %zu benchmark(s) x %zu "
              "model(s) x %zu scorer(s) x %zu batch(es) x %u seed(s), "
              "state-dir=%s, threads=%u\n",
              Spec.ScaleName.c_str(), Spec.benchmarkList().size(),
              Spec.Models.size(), Spec.Scorers.size(), Spec.BatchSizes.size(),
              Spec.repetitions(), Options.StateDir.c_str(), Options.Threads);
  if (Options.LeaseClaim)
    std::printf("# lease claiming: %u cell(s)/range, leases in %s\n",
                Options.LeaseRangeCells, Options.leaseDir().c_str());

  CampaignProgress Progress = runCampaignCells(Spec, Options);
  std::printf("cells: %zu total, %zu already checkpointed, %zu run now\n",
              Progress.TotalCells, Progress.AlreadyDone, Progress.NewlyRun);
  if (Progress.WorkersUsed)
    std::printf("scheduler: %u worker(s), %llu task(s) executed "
                "(%zu cells + nested shards), %llu steal(s)\n",
                Progress.WorkersUsed,
                (unsigned long long)Progress.TasksExecuted, Progress.NewlyRun,
                (unsigned long long)Progress.Steals);
  if (!Progress.QuarantinedCells.empty()) {
    std::fprintf(stderr,
                 "campaign: %zu cell(s) quarantined by ledger append or "
                 "lease claim failures, or by conflicting ledger lines:\n",
                 Progress.QuarantinedCells.size());
    for (const std::string &Key : Progress.QuarantinedCells)
      std::fprintf(stderr, "  quarantined: %s\n", Key.c_str());
    std::fprintf(stderr,
                 "re-run the same command to retry the cells whose append "
                 "or lease claim failed; a cell whose lines conflict is "
                 "never rerun: remove the wrong line from the "
                 "cells*.jsonl in %s first\n",
                 Options.StateDir.c_str());
    return ExitQuarantined;
  }
  if (!Progress.Complete) {
    std::printf("campaign interrupted by --max-cells; re-run the same "
                "command to resume from the ledgers in %s\n",
                Options.StateDir.c_str());
    return ExitIncomplete;
  }
  if (Options.LeaseClaim) {
    // Lease workers never write --out: several workers would race on
    // one path.  A plain run aggregates the union once the fleet is done.
    std::printf("worker ledger complete: %s; when all workers are done, "
                "a plain run with --state-dir=%s writes the aggregate\n",
                Options.ledgerPath().c_str(), Options.StateDir.c_str());
    return 0;
  }

  CampaignResult Result;
  if (!aggregateCampaign(Spec, Options, Result)) {
    std::fprintf(stderr, "error: the ledgers in %s are missing cells just "
                 "run\n", Options.StateDir.c_str());
    return 1;
  }
  std::string Json = campaignJson(Spec, Result);
  std::FILE *Out = std::fopen(OutPath.c_str(), "wb");
  bool Written =
      Out && std::fwrite(Json.data(), 1, Json.size(), Out) == Json.size();
  // The close flushes what stdio still buffers, so it can fail too.
  if (Out && std::fclose(Out) != 0)
    Written = false;
  if (!Written) {
    std::fprintf(stderr, "error: cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::printf("written: %s (geomean speedup %.2f over %zu combo(s))\n",
              OutPath.c_str(), Result.GeomeanSpeedup, Result.Combos.size());
  return 0;
}
