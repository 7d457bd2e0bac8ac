//===- exp/Campaign.h - Sharded, checkpointable experiment campaigns -----===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign orchestrator behind the paper's headline results (Table 1,
/// Figure 5, Figure 6): a work-queue that expands a CampaignSpec — the
/// cross-product of benchmarks x surrogate models x scorers x batch sizes
/// x sampling plans x seeds at any ExperimentScale — into independent run
/// cells, submits the cells as top-level tasks of a work-stealing
/// Scheduler, and checkpoints every completed cell to a crash-safe JSONL
/// ledger.  The ledger is the union of every cells*.jsonl in the state
/// dir: a plain run appends to cells.jsonl, each lease worker to its own
/// cells.<worker>.jsonl, and every reader takes the union.  Cells are *nested-parallel*: each cell's learner forks its
/// inner work (DynaTree particle shards, GP and DynaTree scoring shards)
/// onto the same scheduler, so when the campaign tail leaves fewer cells
/// than workers, the idle workers steal the straggler cells' inner
/// shards instead of spinning down.
///
/// Determinism contract (regression-tested):
///  * every cell is a pure function of its key — cells never share mutable
///    state, and every inner shard grid plus its per-shard counter-derived
///    seeds are independent of worker count and steal order, so nested
///    cell parallelism composes with the bit-reproducible runs pinned by
///    PRs 1-2;
///  * aggregation happens only over the parsed checkpoint (doubles round
///    trip through %.17g exactly), in canonical spec order — so the
///    aggregate JSON is byte-identical at any worker thread count, under
///    any cell completion order, and across kill/resume boundaries;
///  * re-launching a spec skips every cell already present in the ledger
///    union, whichever process appended it (keys embed a fingerprint of
///    all scale parameters, so changing the scale never resurrects stale
///    results).
///
/// Expensive buildDataset profiling is memoized per (benchmark, scale,
/// seed) in an on-disk blob cache (support/Serialize); cache hits are
/// bit-identical to a fresh build.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_EXP_CAMPAIGN_H
#define ALIC_EXP_CAMPAIGN_H

#include "exp/Runner.h"
#include "support/Error.h"

#include <string>
#include <vector>

namespace alic {

/// Default seeds for campaign datasets and learner runs.  The bench
/// binaries alias these (BenchCommon.h), so alic_campaign and every
/// renderer address the same ledger cells — change them only here.
inline constexpr uint64_t CampaignDatasetSeed = 0xa11cebe7;
inline constexpr uint64_t CampaignRunSeed = 0x0911fe;

/// The cross-product a campaign covers.  Defaults reproduce the paper's
/// comparison: every SPAPT benchmark, the dynamic-tree surrogate, ALC
/// scoring, one-at-a-time labelling, and the three sampling plans of
/// Figure 6 (35 observations, 1 observation, variable).
struct CampaignSpec {
  std::vector<std::string> Benchmarks; ///< empty = all eleven, Table 1 order
  std::vector<ModelKind> Models = {ModelKind::DynaTree};   ///< surrogates
  std::vector<ScorerKind> Scorers = {ScorerKind::Alc};     ///< scorers
  std::vector<unsigned> BatchSizes = {1};                  ///< picks/step
  /// Sampling plans each combo runs.  May be empty (noise-only campaigns,
  /// e.g. the Table 2 renderer).
  std::vector<SamplingPlan> Plans = {SamplingPlan::fixed(35),
                                     SamplingPlan::fixed(1),
                                     SamplingPlan::sequential(35)};
  /// Query policies each combo runs (core/QueryPolicy.h).  The default —
  /// a single Always policy — is the legacy spec shape: its cell keys and
  /// aggregate JSON carry no policy token, so ledgers and committed
  /// BENCH_campaign.json baselines from before the policy axis stay
  /// byte-identical (and Always cells are shared with policy sweeps).
  std::vector<QueryPolicyConfig> Policies = {QueryPolicyConfig()};
  /// Seeds per combo x plan; 0 = Scale.Repetitions.  Cell seeds derive as
  /// hashCombine({BaseRunSeed, rep}), matching runAveraged.
  unsigned Repetitions = 0;
  ExperimentScale Scale;            ///< size/budget preset the cells run at
  std::string ScaleName = "custom"; ///< label only (JSON "scale" field)
  uint64_t DatasetSeed = CampaignDatasetSeed; ///< dataset build seed
  uint64_t BaseRunSeed = CampaignRunSeed;     ///< base of per-cell run seeds
  /// Also run one noise-summary cell per benchmark (the Table 2
  /// measurement: variance and CI/mean spread across configurations).
  bool NoiseCells = true;

  /// Benchmarks with empty defaulted to the full suite.
  std::vector<std::string> benchmarkList() const;
  /// Policies with empty defaulted to the single Always default.
  std::vector<QueryPolicyConfig> policyList() const;
  /// True when the policy axis is the single default Always policy (the
  /// legacy spec shape — no policy tokens in keys or JSON).
  bool defaultPolicyAxis() const;
  /// Repetitions with 0 defaulted to Scale.Repetitions (floor 1).
  unsigned repetitions() const;
};

/// One independent unit of campaign work.
struct CampaignCell {
  /// A cell is either one learning run or one noise summary.
  enum class Kind {
    Run,  ///< single-seed learning run (one point of the cross-product)
    Noise ///< per-benchmark noise-spread measurement (Table 2)
  };
  Kind CellKind = Kind::Run;             ///< which kind this cell is
  std::string Benchmark;                 ///< SPAPT benchmark name
  ModelKind Model = ModelKind::DynaTree; ///< surrogate (Run cells)
  ScorerKind Scorer = ScorerKind::Alc;   ///< scorer (Run cells)
  unsigned BatchSize = 1;                ///< picks per step (Run cells)
  SamplingPlan Plan;                     ///< sampling plan (Run cells)
  /// Query policy the cell's learner runs (Always by default).
  QueryPolicyConfig Policy;
  unsigned Rep = 0; ///< repetition index (seed derives from it)

  /// Canonical ledger key, e.g.
  /// "run|atax|dynatree|alc|b1|seq:35|r0|fp=0123456789abcdef".  A
  /// non-Always query policy adds a "q=<token>" segment before the rep
  /// (Always cells keep the legacy key, so policy sweeps share them with
  /// plain campaigns).  The fingerprint hashes every scale parameter plus
  /// the dataset and run seeds, so a ledger can host cells from many
  /// scales without collisions.
  std::string key(const CampaignSpec &Spec) const;
};

/// Checkpointed result of one cell (run curves or noise summary).
struct CellResult {
  RunResult Run;                   ///< Kind::Run cells
  std::vector<double> NoiseStats;  ///< Kind::Noise cells: 9 values,
                                   ///< {var,ci35,ci5} x {min,mean,max}
};

/// Per-benchmark noise spread (Table 2 semantics).
struct NoiseSummary {
  std::string Benchmark; ///< SPAPT benchmark name
  double VarMin = 0, VarMean = 0, VarMax = 0;    ///< runtime variance spread
  double Ci35Min = 0, Ci35Mean = 0, Ci35Max = 0; ///< CI/mean at 35 samples
  double Ci5Min = 0, Ci5Mean = 0, Ci5Max = 0;    ///< CI/mean at 5 samples
};

/// Seed-averaged curves for one (benchmark, model, scorer, batch, query
/// policy) combo.
struct ComboResult {
  std::string Benchmark;                 ///< SPAPT benchmark name
  ModelKind Model = ModelKind::DynaTree; ///< surrogate of the combo
  ScorerKind Scorer = ScorerKind::Alc;   ///< scorer of the combo
  unsigned BatchSize = 1;                ///< picks per step of the combo
  /// Query policy of every cell in this combo (Always by default).
  QueryPolicyConfig Policy;
  /// One averaged RunResult per spec plan, in spec order.
  std::vector<RunResult> PlanResults;
  /// Lowest-common-error comparison (Table 1 semantics) of the first
  /// fixed plan against the first sequential plan; Speedup == 0 when the
  /// spec lacks either.
  PlanComparison Speedup;

  /// The averaged result for \p Plan, or nullptr if the spec lacks it.
  const RunResult *planResult(const CampaignSpec &Spec,
                              const SamplingPlan &Plan) const;
};

/// Deterministic aggregate of a completed campaign.
struct CampaignResult {
  std::vector<ComboResult> Combos;       ///< canonical spec order
  std::vector<NoiseSummary> Noise;       ///< benchmark order
  /// Geometric mean of all combo speedups > 0 (0 when none).
  double GeomeanSpeedup = 0.0;
};

/// Knobs of one orchestrator invocation (not part of any cell key:
/// changing them never changes results, only how they are produced).
struct CampaignOptions {
  /// Scheduler workers; 0 runs cells inline with no scheduler at all.
  /// Aggregate output is byte-identical at any value.
  unsigned Threads = 0;
  /// Non-zero: overrides the scheduler's victim-selection seed (stress
  /// tests force different steal interleavings; results never depend on
  /// it).
  uint64_t StealSeed = 0;
  /// Ledgers + dataset-cache directory; created on demand.
  std::string StateDir = "alic-campaign";
  /// Attempt at most this many missing cells (0 = run to completion) —
  /// deterministic mid-campaign interruption for the resume tests and CI.
  /// Exact in every mode and at any worker count.
  size_t MaxCells = 0;
  /// Non-zero: execute each range's missing cells in a seeded shuffled
  /// order instead of spec order (completion-order-invariance tests).
  uint64_t ShuffleSeed = 0;
  /// Suppress per-cell progress lines on stderr.
  bool Quiet = false;

  // --- scale-out (exp/ShardLease, ARCHITECTURE.md "Scale-out").  A lease
  // worker appends to its own ledger (cells.<worker>.jsonl) and skips
  // nothing else: cells stay pure functions of their keys, so the union
  // of N workers' ledgers holds the same lines one process would append,
  // and a plain run aggregates it with no further step.

  /// Claim cell ranges at runtime by taking an exclusive flock on their
  /// lease files in leaseDir().  The kernel drops a dead worker's locks
  /// at once, so survivors claim its ranges at their next scan; a stopped
  /// (SIGSTOP, paused VM) worker keeps its ranges until it resumes or
  /// dies.  The invocation returns when every spec cell is in the union
  /// of worker ledgers, whoever ran it, or when no range it could still
  /// claim has a missing cell.
  bool LeaseClaim = false;
  /// Target cells per claimable range when lease claiming (floor 1).
  unsigned LeaseRangeCells = 16;
  /// A lease worker's ledger tag (see workerId()).
  std::string WorkerId;

  /// WorkerId, or w<pid> when it is empty.
  std::string workerId() const;
  /// The ledger file this invocation appends to: the lease worker's
  /// cells.<workerId()>.jsonl when LeaseClaim is set, else cells.jsonl.
  /// Every reader takes the union of all cells*.jsonl under StateDir.
  std::string ledgerPath() const {
    return StateDir + (LeaseClaim ? "/cells." + workerId() + ".jsonl"
                                  : "/cells.jsonl");
  }
  /// The lease-file directory under StateDir (lease mode).
  std::string leaseDir() const { return StateDir + "/leases"; }
  /// The dataset blob cache directory under StateDir.
  std::string datasetCacheDir() const { return StateDir + "/datasets"; }
};

/// What one runCampaignCells invocation did.
struct CampaignProgress {
  size_t TotalCells = 0;   ///< cells the spec expands to
  size_t AlreadyDone = 0;  ///< of TotalCells, found complete in the ledger
  size_t NewlyRun = 0;     ///< computed and durably appended by this invocation
  /// Every spec cell is now in the ledger union, and none conflicts.
  bool Complete = false;
  /// Keys of cells this invocation gave up on, sorted.  The campaign
  /// *finishes the remaining cells* instead of aborting.  Two causes are
  /// transient: a ledger append that failed even after the bounded
  /// retry/backoff (e.g. the disk filled up), or a range's lease claim
  /// that failed with an error.  Those cells are simply absent from the
  /// ledger, so re-launching the same spec retries exactly them and the
  /// final aggregate is byte-identical to an uninterrupted run.  The third
  /// is corruption: two complete lines carry the cell with different
  /// bytes.  Such a cell is never rerun, and it stays quarantined until
  /// the wrong line is removed.  Non-empty implies !Complete.
  std::vector<std::string> QuarantinedCells;
  // Scheduler observability (never part of any result).
  unsigned WorkersUsed = 0;  ///< scheduler worker threads (0 = inline)
  uint64_t TasksExecuted = 0; ///< cells + stolen/forked inner shards
  uint64_t Steals = 0;       ///< tasks taken from another worker's deque
};

/// Expands \p Spec into its cells, in canonical (deterministic) order:
/// benchmarks x models x scorers x batches x plans x policies x reps,
/// then noise.
std::vector<CampaignCell> expandCells(const CampaignSpec &Spec);

/// Runs every spec cell missing from the ledger union, sharding across
/// Options.Threads workers; each completed cell is appended to
/// Options.ledgerPath() crash-safely (single flushed+synced write).
///
/// One loop serves both modes: take a range of the canonical unique-cell
/// list, run its missing cells, append them, repeat.  The modes differ
/// only in how a range is obtained — the default run offers the whole
/// list once; with LeaseClaim set, ranges are claimed through
/// exp/ShardLease and the union is reread after every claim until no
/// spec cell is missing.  In both modes ShuffleSeed orders each range's
/// missing cells and MaxCells caps the cells attempted.  A spec with
/// nothing missing opens no file for writing and starts no scheduler.
///
/// Reading the union, byte-identical duplicate lines collapse, and torn
/// tails and unparsable lines are skipped.  A spec cell that two complete
/// lines carry with different bytes is quarantined and never rerun.
///
/// I/O failures *degrade* instead of aborting: a failed append is
/// retried with bounded exponential backoff (fault-injection sites
/// `ledger.append` / `ledger.sync`), and a cell whose append still fails
/// is quarantined (Progress.QuarantinedCells) while the rest of the range
/// and campaign completes (a lease worker stops claiming that range).  A
/// lease claim that fails with an error (not because another worker
/// holds the range) quarantines that range's missing cells unrun, and
/// the worker stops claiming it.  A state dir, lease dir or ledger that
/// cannot be opened at all quarantines every missing cell without
/// computing any.
CampaignProgress runCampaignCells(const CampaignSpec &Spec,
                                  const CampaignOptions &Options);

/// Aggregates a campaign from the ledger union alone (never from
/// in-memory results — the single code path that makes resumed,
/// uninterrupted and lease-sharded runs byte-identical).  Returns false
/// when any spec cell is missing or its lines conflict.
bool aggregateCampaign(const CampaignSpec &Spec,
                       const CampaignOptions &Options, CampaignResult &Out);

/// runCampaignCells + aggregateCampaign.  Returns false when the run did
/// not complete (MaxCells interrupted it, or cells are quarantined).
bool runCampaign(const CampaignSpec &Spec, const CampaignOptions &Options,
                 CampaignResult &Out);

/// Renders the canonical BENCH_campaign.json document: per-combo
/// lowest-common-error speedups, final RMSEs, decimated curve summaries,
/// per-benchmark noise spreads, and the geo-mean speedup.  Contains no
/// timestamps or host details; equal results render to equal bytes.
std::string campaignJson(const CampaignSpec &Spec,
                         const CampaignResult &Result);

/// The default plan list at scale \p S — the three Figure 6 sampling
/// plans with the scale's sequential cap.  The alic_campaign CLI and the
/// bench renderers both build their specs from this (identical plans =>
/// identical cell keys => shared ledger state); never inline a copy.
std::vector<SamplingPlan> defaultCampaignPlans(const ExperimentScale &S);

/// The default state directory for one scale: "alic-campaign-<scale>".
/// Shared by the CLI default and the renderers' ALIC_CAMPAIGN_DIR
/// fallback for the same reason.
std::string defaultCampaignStateDir(const std::string &ScaleName);

} // namespace alic

#endif // ALIC_EXP_CAMPAIGN_H
