//===- serve/ServeEngine.h - Session-multiplexed tuning service *- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-process core of `alic_serve`: many concurrent *tuning sessions*
/// — each an ActiveLearner plus, with a state dir, an append-only session
/// log — multiplexed onto one work-stealing Scheduler.
///
/// A session speaks the request/response shape of the learning loop:
/// suggest() returns the configuration(s) the learner wants measured next
/// plus a ticket, the client measures them however it likes (a real
/// compile-and-run, or a virtual profiler in the examples and benches),
/// and observe(ticket, costs) folds the measurements in.  Before the
/// first costs arrive the learner serves its sampling-plan seed
/// configurations without consulting any model (explore-only serving).
///
/// **Crash safety.**  Every session logs to `<state-dir>/sess-<id>.alsv`
/// through the campaign ledger's append idiom (support/Serialize): line 1
/// is the header (id and spec), written once at open, and each observe
/// appends and fsyncs one record (ticket, costs) before the learner
/// absorbs it.  The learner's full state is a pure function of the spec
/// and the costs (see core/ActiveLearner.h), so restore *replays* the log
/// through suggest()/observe() and lands bit-identically where the killed
/// process stood: the next suggestion after a restore is byte-identical
/// to the one an uninterrupted engine would have issued, at any scheduler
/// worker count.  serve_test pins this.
///
/// **Thread-safety.**  All public methods are safe to call concurrently
/// from any number of threads.  The engine holds one mutex over the
/// session table and one per session; sessions are reference-counted, so
/// a closeSession() racing an in-flight call on the same session cannot
/// destroy state the other thread still holds (the in-flight call simply
/// observes the session as closed).  A session's learner additionally
/// fans its internal work out across the shared scheduler (nested
/// parallelism — safe because inner shards never take session locks).
/// Sessions on one (benchmark, scale, dataset seed) share one immutable
/// dataset and benchmark object, built once per key outside the session
/// table's mutex, so the first open of a benchmark blocks no other call.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SERVE_SERVEENGINE_H
#define ALIC_SERVE_SERVEENGINE_H

#include "core/ActiveLearner.h"
#include "exp/Runner.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace alic {

/// Everything that defines a tuning session's behaviour.  Two sessions
/// with equal specs (and the same observed costs) evolve identically —
/// the spec plus the observation log *is* the session state.
struct SessionSpec {
  /// SPAPT benchmark whose configuration space is tuned (spapt/Suite
  /// names); must be one of spaptBenchmarkNames().
  std::string Benchmark = "gemver";
  /// Surrogate family driving selection.
  ModelKind Model = ModelKind::DynaTree;
  /// Candidate-scoring criterion.
  ScorerKind Scorer = ScorerKind::Alc;
  /// Observation plan (the paper's sequential plan by default).
  SamplingPlan Plan = SamplingPlan::sequential(35);
  /// Examples labelled per suggest/observe round trip.
  unsigned BatchSize = 1;
  /// Root seed of the learner's random streams.
  uint64_t Seed = 1;
  /// Seed of the shared dataset's sampling streams; sessions sharing
  /// (Benchmark, Scale, DatasetSeed) share one in-memory dataset.
  uint64_t DatasetSeed = 0xa11cebe7;
  /// Query policy deciding whether each model-guided pick is measured or
  /// skipped (core/QueryPolicy.h).  Chosen at `open`; skip decisions are
  /// visible in suggest replies and replay deterministically on restore.
  QueryPolicyConfig Query;
  /// Size parameters (pool size, ninit, nmax, nc, particle count, ...).
  ExperimentScale Scale = ExperimentScale::fromEnv();
};

/// Engine construction knobs.
struct ServeOptions {
  /// Directory for session logs (created on demand; if that fails, every
  /// open fails).  Empty keeps sessions in memory only: observe() then
  /// does no encoding and no I/O, and restoreSessions() restores nothing.
  std::string StateDir;
  /// Dataset blob cache handed to loadOrBuildDataset; empty disables the
  /// on-disk layer (the in-memory layer always applies).
  std::string DatasetCacheDir;
  /// Scheduler workers shared by every session's learner.  0 runs all
  /// learner-internal work inline with no scheduler at all; results are
  /// bit-identical either way (the scheduler determinism contract).
  unsigned Threads = 0;
  /// Victim-selection seed for the scheduler (stress-test knob; results
  /// never depend on it).
  uint64_t StealSeed = 0x57ea1ull;
};

/// A point-in-time summary of one session, as reported by sessionInfo().
struct SessionInfo {
  /// Lifecycle phase the session's next suggestion is (or would be) in.
  SuggestPhase Phase = SuggestPhase::Explore;
  /// The learner's progress counters.
  LearnerStats Stats;
  /// Sum of every cost the client has reported, in seconds.
  double TotalCostSeconds = 0.0;
  /// Number of observe() calls absorbed so far.
  size_t Observes = 0;
  /// True once the completion criterion is met.
  bool Done = false;
};

/// The session multiplexer.  One instance per daemon (or per test);
/// construct, optionally restoreSessions(), then serve.
class ServeEngine {
public:
  /// Starts the engine (and its scheduler, when Opts.Threads > 0).
  explicit ServeEngine(ServeOptions Opts);
  /// Drops all sessions (their logs stay on disk) and joins the scheduler.
  ~ServeEngine();

  ServeEngine(const ServeEngine &) = delete;            ///< non-copyable
  ServeEngine &operator=(const ServeEngine &) = delete; ///< non-copyable

  /// Creates session \p Id from \p Spec.  Ids are 1-64 characters from
  /// [A-Za-z0-9._-] (they name session logs).  Fails — returning false
  /// and setting \p Err — on a malformed id, a duplicate id, an unknown
  /// benchmark, or (with a StateDir) a log header that cannot be written
  /// durably; the error then names the path and errno.  On success the
  /// session is immediately serveable.
  bool openSession(const std::string &Id, const SessionSpec &Spec,
                   std::string &Err);

  /// Copies session \p Id's next suggestion into \p Out: the first call
  /// returns the seed configurations (explore phase), later calls run
  /// model-guided selection, and a completed session returns an empty
  /// suggestion with SuggestPhase::Done.  With a non-Always query policy
  /// a suggestion may carry skipped configs (Suggestion::Skipped) or be
  /// all-skip (SuggestPhase::Skip, observed with zero costs).  Idempotent
  /// while a suggestion is outstanding — a client that lost the reply can
  /// re-ask and receives the identical ticket, configs, and skips.
  bool suggest(const std::string &Id, Suggestion &Out, std::string &Err);

  /// Reports measured costs for the outstanding suggestion of session
  /// \p Id.  \p Costs holds ObservationsPerConfig values per suggested
  /// configuration, grouped by configuration.  With a StateDir the record
  /// (ticket, costs) is appended to the session log and fsynced before
  /// the learner absorbs it, so a successful observe is durable.  Fails,
  /// leaving the session unchanged, on an unknown session, a ticket that
  /// is not the outstanding one, a wrong cost count, or an append that
  /// still fails after its retries (the error names the path and errno;
  /// the record may have reached the disk, and a retry replaces it).
  bool observe(const std::string &Id, uint64_t Ticket,
               const std::vector<double> &Costs, std::string &Err);

  /// Predicts over the session's held-out test subset and returns the
  /// RMSE — the paper's accuracy metric, queryable mid-session.  Fails
  /// before the first fit (explore phase).
  bool evaluate(const std::string &Id, double &Rmse, std::string &Err);

  /// Fills \p Out with session \p Id's current phase and counters.
  bool sessionInfo(const std::string &Id, SessionInfo &Out,
                   std::string &Err) const;

  /// Drops session \p Id from memory and deletes its log.  False when
  /// the id is unknown.
  bool closeSession(const std::string &Id);

  /// Loads every `sess-*.alsv` log under StateDir and replays its records
  /// through a fresh learner, reconstructing all session states
  /// bit-identically (see file comment).  Lines are read by the ledger's
  /// rules (scanLogLines): a torn tail is dropped and an undecodable line
  /// skipped.  A log whose first line is not a valid header for the id
  /// in its file name (a checksum mismatch, a spec no session can run,
  /// another format version), or whose records do not follow the
  /// replayed learner's tickets, is skipped — never fatal — and counted
  /// in \p Skipped.  Returns the
  /// number of sessions restored.  Call once, before serving.
  size_t restoreSessions(size_t *Skipped = nullptr);

  /// Number of live sessions.
  size_t sessionCount() const;

private:
  struct Session;
  struct DatasetEntry;
  struct LockedSession;

  bool validId(const std::string &Id) const;
  std::string logPath(const std::string &Id) const;
  /// The shared dataset and benchmark of \p Spec, built on first use
  /// without holding EngineMutex.
  std::shared_ptr<const DatasetEntry> datasetFor(const SessionSpec &Spec);
  std::shared_ptr<Session> buildSession(const SessionSpec &Spec,
                                        std::string &Err);
  /// Restores the session logged at \p Path; false when it is skipped.
  bool restoreSession(const std::string &Path);
  /// Session \p Id, locked and open: a reference-counted handle copied
  /// under EngineMutex (so the session outlives a concurrent
  /// closeSession()) plus a hold on its mutex, taken after EngineMutex is
  /// released.  Empty, with \p Err naming the id, when the id is unknown
  /// or the session closed before its mutex was taken.
  LockedSession lockSession(const std::string &Id, std::string &Err) const;

  ServeOptions Opts;
  std::unique_ptr<Scheduler> Sched;

  mutable std::mutex EngineMutex;
  std::map<std::string, std::shared_ptr<Session>> Sessions;
  /// In-memory dataset cache keyed by (benchmark, scale, dataset seed);
  /// 10k sessions over one benchmark share one dataset, one pool view
  /// and one benchmark object.  DatasetsMutex guards only the map.
  std::mutex DatasetsMutex;
  std::map<std::string, std::shared_ptr<DatasetEntry>> Datasets;
};

} // namespace alic

#endif // ALIC_SERVE_SERVEENGINE_H
