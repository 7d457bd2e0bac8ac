//===- core/QueryPolicy.cpp -----------------------------------*- C++ -*-===//

#include "core/QueryPolicy.h"

#include "support/Json.h"

#include <algorithm>
#include <cmath>

using namespace alic;

QueryPolicy::~QueryPolicy() = default;

void QueryPolicy::onLabel(double Cost) { (void)Cost; }

double alic::queryBinarySearch(double Fhat, double Delta, double Sens,
                               double Tol) {
  // Faithful to VW cs_active's binarySearch: the admissible importance
  // weight is capped at fhat/sens (beyond it the probed prediction
  // crosses zero); if even the cap fits inside the budget, return it.
  constexpr int MaxIter = 20;
  double MaxW = std::min(Fhat / Sens, 1e12);
  if (MaxW * Fhat * Fhat <= Delta)
    return MaxW;
  double L = 0.0, U = MaxW;
  for (int Iter = 0; Iter != MaxIter; ++Iter) {
    double W = (U + L) / 2.0;
    double Probe = Fhat - Sens * W;
    double V = W * (Fhat * Fhat - Probe * Probe) - Delta;
    if (V > 0)
      U = W;
    else
      L = W;
    if (std::fabs(V) / Delta <= Tol || U - L <= Tol)
      break;
  }
  return L;
}

namespace {

/// Skip picks whose predictive variance fell below the configured floors.
class AlmThresholdPolicy : public QueryPolicy {
public:
  explicit AlmThresholdPolicy(const QueryPolicyConfig &Cfg) : Cfg(Cfg) {}

  bool shouldQuery(const QueryDecision &D) override {
    double Var = std::max(D.Variance, 0.0);
    PeakVariance = std::max(PeakVariance, Var);
    double Floor = std::max(Cfg.AbsFloor, Cfg.RelFloor * PeakVariance);
    return Var >= Floor;
  }

private:
  QueryPolicyConfig Cfg;
  /// Largest variance consulted so far; the relative floor's yardstick.
  double PeakVariance = 0.0;
};

/// VW cs_active's cost-range test, in cost units normalized by the range
/// of labels observed so far so one mellowness works across benchmarks.
class CostRangePolicy : public QueryPolicy {
public:
  explicit CostRangePolicy(const QueryPolicyConfig &Cfg) : Cfg(Cfg) {}

  bool shouldQuery(const QueryDecision &D) override {
    double Range = CostMax - CostMin;
    if (!HaveLabel || !(Range > 0))
      return true; // no cost scale yet: bootstrap by querying
    double Sens = std::sqrt(std::max(D.Variance, 0.0)) / Range;
    if (!(Sens > 0))
      return false; // a settled prediction cannot move the model
    // How wrong could the prediction be, in range units?  Distance to the
    // farther observed extreme, so it is always >= 1/2 and a prediction
    // sitting near one end of the range still probes the full span.
    double Fhat =
        std::max(std::fabs(D.Mean - CostMin), std::fabs(D.Mean - CostMax)) /
        Range;
    // Shrinking regret budget: early picks query freely, late picks must
    // justify the label against an ever-tighter version space.
    double T = double(std::max<uint64_t>(D.StreamPosition, 1));
    double Delta = Cfg.Mellowness * std::log(T + 1.0) / T;
    double W = queryBinarySearch(Fhat, Delta, Sens, 1e-6);
    // Sens * W is the prediction-interval width the budget still admits;
    // below the c1 fraction of the cost range a label is uninformative.
    return Sens * W > Cfg.RangeC1;
  }

  void onLabel(double Cost) override {
    if (!HaveLabel) {
      CostMin = CostMax = Cost;
      HaveLabel = true;
      return;
    }
    CostMin = std::min(CostMin, Cost);
    CostMax = std::max(CostMax, Cost);
  }

private:
  QueryPolicyConfig Cfg;
  bool HaveLabel = false;
  double CostMin = 0.0;
  double CostMax = 0.0;
};

/// Splits "name:num:num" into the name and up to \p MaxNums numbers, each
/// an unsigned JSON number filling its segment.  Returns the number of
/// numbers parsed, or -1 on malformed input.
int splitNums(const std::string &Token, std::string &Name, double *Nums,
              int MaxNums) {
  size_t Colon = Token.find(':');
  Name = Token.substr(0, Colon);
  int Count = 0;
  while (Colon != std::string::npos) {
    size_t Next = Token.find(':', Colon + 1);
    std::string Part = Token.substr(Colon + 1, Next == std::string::npos
                                                   ? std::string::npos
                                                   : Next - Colon - 1);
    if (Count >= MaxNums || Part.empty() || Part[0] == '-' ||
        !parseJsonNumber(Part, Nums[Count]))
      return -1;
    ++Count;
    Colon = Next;
  }
  return Count;
}

} // namespace

bool alic::parseQueryPolicy(const std::string &Token, QueryPolicyConfig &Out) {
  std::string Name;
  double Nums[2];
  int Count = splitNums(Token, Name, Nums, 2);
  QueryPolicyConfig Cfg;
  if (Count < 0 || !parseToken(PolicyTokens, Name, Cfg.Kind))
    return false;
  switch (Cfg.Kind) {
  case QueryPolicyKind::Always:
    if (Count != 0)
      return false;
    break;
  case QueryPolicyKind::AlmThreshold:
    if (Count >= 1)
      Cfg.AbsFloor = Nums[0];
    if (Count >= 2)
      Cfg.RelFloor = Nums[1];
    break;
  case QueryPolicyKind::CostRange:
    if (Count >= 1)
      Cfg.Mellowness = Nums[0];
    if (Count >= 2)
      Cfg.RangeC1 = Nums[1];
    break;
  }
  Out = Cfg;
  return true;
}

std::string alic::queryPolicyToken(const QueryPolicyConfig &Cfg) {
  auto withNums = [&](double A, double B) {
    return std::string(tokenOf(PolicyTokens, Cfg.Kind)) + ":" +
           formatJsonDouble(A) + ":" + formatJsonDouble(B);
  };
  switch (Cfg.Kind) {
  case QueryPolicyKind::Always:
    break;
  case QueryPolicyKind::AlmThreshold:
    return withNums(Cfg.AbsFloor, Cfg.RelFloor);
  case QueryPolicyKind::CostRange:
    return withNums(Cfg.Mellowness, Cfg.RangeC1);
  }
  return "always";
}

std::unique_ptr<QueryPolicy> QueryPolicy::create(const QueryPolicyConfig &Cfg) {
  switch (Cfg.Kind) {
  case QueryPolicyKind::Always:
    return nullptr; // callers bypass consultation entirely
  case QueryPolicyKind::AlmThreshold:
    return std::make_unique<AlmThresholdPolicy>(Cfg);
  case QueryPolicyKind::CostRange:
    return std::make_unique<CostRangePolicy>(Cfg);
  }
  return nullptr;
}
