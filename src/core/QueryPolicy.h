//===- core/QueryPolicy.h - Decide whether a label is worth it -*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming query policies: decide *whether* to measure, not just *what*.
///
/// The paper's loop always labels its top-scored candidate.  In serve
/// mode, though, observations arrive as a stream and every label costs a
/// real profiling run — so once the model has settled somewhere, paying
/// for another measurement there is wasted compile time.  A QueryPolicy
/// sits between selection and measurement: after the scorer has ranked
/// the candidates, the policy inspects each chosen pick's predictive
/// distribution and either *queries* it (measure as usual) or *skips* it
/// (the pick is consumed unlabelled — it leaves the candidate pool and
/// the iteration budget advances, but no profiler run is charged and the
/// model is untouched).
///
/// Three policies are provided:
///
///  * Always — the paper's behavior, and the default.  No policy object
///    is even constructed, so the learner's code path (and its random
///    streams, and the committed campaign aggregates) stay bit-identical
///    to the pre-policy loop.
///  * AlmThreshold — skip picks whose predictive variance has fallen
///    below an absolute floor and a relative fraction of the largest
///    variance the policy has seen; a cheap "the model stopped being
///    curious here" test.
///  * CostRange — the mellowness-controlled cost-range test of VW's
///    cs_active: probe, via a `binarySearch` over importance weights, how
///    wide a prediction interval the learner can still justify at this
///    point under a shrinking regret budget delta_t; skip when that
///    interval is narrower than a fixed fraction of the observed cost
///    range, i.e. when no plausible label could move the model.
///
/// **Determinism contract:** policies draw no random numbers and never
/// read the clock.  A decision is a pure function of the policy's
/// configuration, the labels it has been fed through onLabel(), and the
/// consultation sequence (each consult sees the model's prediction at a
/// deterministic stream position).  Replaying a recorded cost sequence
/// through ActiveLearner::observe() therefore reproduces every skip
/// decision bit-identically — which is what lets serve session logs
/// restore sessions by replay at any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_CORE_QUERYPOLICY_H
#define ALIC_CORE_QUERYPOLICY_H

#include "support/TokenTable.h"

#include <cstdint>
#include <memory>
#include <string>

namespace alic {

/// The three querying strategies (see the file comment).
enum class QueryPolicyKind {
  Always,       ///< label every selected candidate (paper behavior)
  AlmThreshold, ///< skip when predictive variance falls below a floor
  CostRange,    ///< skip when the admissible cost range is narrow (VW)
};

/// Every QueryPolicyKind and the token that names it (the leading segment
/// of a policy token).  Printing, parsing and session-log validation all
/// read this table.
inline constexpr TokenRow<QueryPolicyKind> PolicyTokens[] = {
    {QueryPolicyKind::Always, "always"},
    {QueryPolicyKind::AlmThreshold, "alm"},
    {QueryPolicyKind::CostRange, "cost"}};

/// Serializable description of a query policy.  Travels through
/// ActiveLearnerConfig, campaign specs, the serve wire (`policy` field of
/// `open`) and serve session logs; construct the live policy object with
/// QueryPolicy::create().
struct QueryPolicyConfig {
  /// Which strategy to run.  Always is the default and is guaranteed to
  /// leave the learner bit-identical to a build without query policies.
  QueryPolicyKind Kind = QueryPolicyKind::Always;

  /// CostRange: mellowness c0.  Scales the regret budget
  /// delta_t = c0 * log(t+1) / t; larger values keep querying longer.
  /// Default from the bench_ablation_query sweep at smoke scale: holds
  /// final RMSE within ~10% of Always on 8/11 SPAPT benchmarks while
  /// declining ~half the refine-label budget.
  double Mellowness = 0.1;

  /// CostRange: query iff the admissible prediction interval is wider
  /// than RangeC1 times the observed cost range.
  double RangeC1 = 0.03;

  /// AlmThreshold: absolute predictive-variance floor (skip below it).
  /// 0 disables the absolute test.
  double AbsFloor = 0.0;

  /// AlmThreshold: relative floor as a fraction of the peak variance
  /// seen so far (skip below RelFloor * peak).  0 disables.
  double RelFloor = 0.05;
};

/// Parses a policy token into \p Out.  Accepted forms: `always`,
/// `alm[:ABS[:REL]]`, `cost[:C0[:C1]]` (missing numbers keep the
/// QueryPolicyConfig defaults).  Each number is one unsigned JSON number
/// (finite, no sign, no whitespace) filling its whole segment.  Returns
/// false, leaving \p Out untouched, on anything else.
bool parseQueryPolicy(const std::string &Token, QueryPolicyConfig &Out);

/// Canonical token for \p Cfg: `always`, `alm:ABS:REL`, or `cost:C0:C1`,
/// numbers in their shortest round-trip form.  Stable across runs (used
/// in campaign cell keys), distinct for configurations that differ in a
/// number their kind reads, and exact: when those numbers are finite and
/// non-negative, parseQueryPolicy() gives them back bit for bit.
std::string queryPolicyToken(const QueryPolicyConfig &Cfg);

/// What a policy sees when consulted about one selected candidate.
struct QueryDecision {
  /// Model's predicted cost (seconds) at the candidate.
  double Mean = 0.0;
  /// Model's predictive variance at the candidate.
  double Variance = 0.0;
  /// Stream position: refine picks consumed so far (queried or skipped).
  /// Drives the shrinking regret budget of CostRange.
  uint64_t StreamPosition = 0;
};

/// Strategy interface consulted by ActiveLearner::suggest() for every
/// model-guided (Refine) pick.  Implementations may keep internal state
/// (peak variance, observed cost range) but must stay deterministic: no
/// RNG, no clock — see the determinism contract in the file comment.
class QueryPolicy {
public:
  virtual ~QueryPolicy(); ///< out-of-line anchor for the vtable

  /// True to measure the candidate, false to skip it.  May update the
  /// policy's internal statistics; the learner consults exactly once per
  /// consumed pick, in pick order.
  virtual bool shouldQuery(const QueryDecision &D) = 0;

  /// Fed every label the learner absorbs (seed means included), in
  /// absorption order, so policies can track the observed cost range.
  virtual void onLabel(double Cost);

  /// Builds the live policy for \p Cfg — or nullptr for Always, so the
  /// caller's fast path can skip policy consultation entirely.
  static std::unique_ptr<QueryPolicy> create(const QueryPolicyConfig &Cfg);
};

/// The cs_active sensitivity probe (SNIPPETS.md §1): largest importance
/// weight w such that w * (fhat^2 - (fhat - sens*w)^2) <= delta, found by
/// bisection over at most 20 iterations.  \p Fhat is the prediction
/// magnitude, \p Delta the regret budget, \p Sens the prediction's
/// sensitivity (standard deviation here), \p Tol the bisection tolerance.
/// Exposed for tests.
double queryBinarySearch(double Fhat, double Delta, double Sens, double Tol);

} // namespace alic

#endif // ALIC_CORE_QUERYPOLICY_H
