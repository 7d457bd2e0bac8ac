//===- tests/query_test.cpp - query-policy unit tests ---------*- C++ -*-===//
//
// Pins the QueryPolicy layer in isolation: token parsing round-trips,
// the cs_active-style binary search's envelope properties, the
// AlmThreshold variance floor, the CostRange cost-range test, and the
// determinism contract — identical consultation streams produce
// identical decision streams, with no hidden state beyond the labels
// fed through onLabel().
//
//===----------------------------------------------------------------------===//

#include "core/QueryPolicy.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

using namespace alic;

TEST(QueryPolicyTest, ParseAndTokenRoundTrip) {
  for (const char *Token :
       {"always", "alm:0:0.05", "alm:0.1:0.3", "cost:0.1:0.03",
        "cost:0.5:0.001"}) {
    QueryPolicyConfig Cfg;
    ASSERT_TRUE(parseQueryPolicy(Token, Cfg)) << Token;
    EXPECT_EQ(queryPolicyToken(Cfg), Token);
  }
}

TEST(QueryPolicyTest, ParseDefaultsAndPartials) {
  QueryPolicyConfig Cfg;
  ASSERT_TRUE(parseQueryPolicy("alm", Cfg));
  EXPECT_EQ(Cfg.Kind, QueryPolicyKind::AlmThreshold);
  EXPECT_EQ(Cfg.AbsFloor, 0.0);
  EXPECT_EQ(Cfg.RelFloor, 0.05);

  ASSERT_TRUE(parseQueryPolicy("cost", Cfg));
  EXPECT_EQ(Cfg.Kind, QueryPolicyKind::CostRange);
  EXPECT_EQ(Cfg.Mellowness, 0.1);
  EXPECT_EQ(Cfg.RangeC1, 0.03);

  ASSERT_TRUE(parseQueryPolicy("cost:0.2", Cfg));
  EXPECT_EQ(Cfg.Mellowness, 0.2);
  EXPECT_EQ(Cfg.RangeC1, 0.03); // second number keeps its default
}

TEST(QueryPolicyTest, ParseRejectsMalformedTokens) {
  QueryPolicyConfig Cfg;
  Cfg.Mellowness = 0.25;
  // Each number is one unsigned JSON number filling its segment: no
  // sign, no whitespace, no nan/inf/hex spellings, nothing that overflows.
  for (const char *Bad :
       {"", "sometimes", "always:1", "alm:1:2:3", "cost:x", "cost:",
        "alm:0.1:", "cost:nan", "cost:NaN", "cost:inf", "cost:infinity",
        "alm:1e999", "alm:0:1e999", "cost:-1", "cost:-0", "alm:0:-0.05",
        "cost:+1", "cost:0x10", "cost: 1", "cost:1 ", "cost:.5", "cost:1.",
        "cost:01", "cost:1e", "cost:0.1:0.03x"}) {
    EXPECT_FALSE(parseQueryPolicy(Bad, Cfg)) << "accepted '" << Bad << "'";
  }
  EXPECT_EQ(Cfg.Kind, QueryPolicyKind::Always); // left untouched
  EXPECT_EQ(Cfg.Mellowness, 0.25);
}

namespace {

/// A finite, non-negative double drawn over the whole exponent range
/// (subnormals included), or a short decimal like the ones people type.
double generatedNumber(Rng &R) {
  if (R.nextBounded(2))
    return double(R.nextBounded(100000)) /
           std::pow(10.0, double(R.nextBounded(8)));
  while (true) {
    uint64_t Bits = R.next() & ~(uint64_t(1) << 63);
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    if (std::isfinite(V))
      return V;
  }
}

uint64_t bitsOf(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return Bits;
}

} // namespace

TEST(QueryPolicyTest, TokenRoundTripsGeneratedConfigsExactly) {
  Rng R(0x70c3);
  for (int I = 0; I != 2000; ++I) {
    QueryPolicyConfig Cfg;
    Cfg.Kind = I % 2 ? QueryPolicyKind::CostRange
                     : QueryPolicyKind::AlmThreshold;
    Cfg.Mellowness = generatedNumber(R);
    Cfg.RangeC1 = generatedNumber(R);
    Cfg.AbsFloor = generatedNumber(R);
    Cfg.RelFloor = generatedNumber(R);
    std::string Token = queryPolicyToken(Cfg);
    QueryPolicyConfig Back;
    ASSERT_TRUE(parseQueryPolicy(Token, Back)) << Token;
    ASSERT_EQ(Back.Kind, Cfg.Kind) << Token;
    if (Cfg.Kind == QueryPolicyKind::CostRange) {
      EXPECT_EQ(bitsOf(Back.Mellowness), bitsOf(Cfg.Mellowness)) << Token;
      EXPECT_EQ(bitsOf(Back.RangeC1), bitsOf(Cfg.RangeC1)) << Token;
    } else {
      EXPECT_EQ(bitsOf(Back.AbsFloor), bitsOf(Cfg.AbsFloor)) << Token;
      EXPECT_EQ(bitsOf(Back.RelFloor), bitsOf(Cfg.RelFloor)) << Token;
    }
    EXPECT_EQ(queryPolicyToken(Back), Token);
  }
}

TEST(QueryPolicyTest, DistinctConfigsGetDistinctTokens) {
  // Cell keys embed the token, so two configs sharing one would reuse
  // each other's checkpointed cells.
  QueryPolicyConfig A, B;
  ASSERT_TRUE(parseQueryPolicy("cost:0.1234567", A));
  ASSERT_TRUE(parseQueryPolicy("cost:0.123457", B));
  EXPECT_NE(queryPolicyToken(A), queryPolicyToken(B));

  // Neighbouring doubles, one ulp apart, across many magnitudes.
  Rng R(0xd157);
  std::set<uint64_t> Configs;
  std::set<std::string> Tokens;
  for (int I = 0; I != 500; ++I) {
    QueryPolicyConfig Cfg;
    Cfg.Kind = QueryPolicyKind::CostRange;
    Cfg.Mellowness = generatedNumber(R);
    for (int Step = 0; Step != 3; ++Step) {
      Configs.insert(bitsOf(Cfg.Mellowness));
      Tokens.insert(queryPolicyToken(Cfg));
      Cfg.Mellowness = std::nextafter(Cfg.Mellowness, 1e308);
    }
  }
  EXPECT_EQ(Tokens.size(), Configs.size());
}

TEST(QueryPolicyTest, AlwaysCreatesNoPolicyObject) {
  // The Always fast path must not consult any policy code at all; the
  // learner's bit-identity to pre-policy builds rests on this nullptr.
  EXPECT_EQ(QueryPolicy::create(QueryPolicyConfig()), nullptr);
  QueryPolicyConfig Cost;
  Cost.Kind = QueryPolicyKind::CostRange;
  EXPECT_NE(QueryPolicy::create(Cost), nullptr);
}

TEST(QueryPolicyTest, BinarySearchEnvelope) {
  // The admissible weight W satisfies W * (F^2 - (F - S*W)^2) <= Delta
  // (up to tolerance) and never exceeds the F/S cap.
  for (double Fhat : {0.5, 1.0, 2.0}) {
    for (double Sens : {0.01, 0.1, 1.0}) {
      for (double Delta : {1e-4, 1e-2, 1.0}) {
        double W = queryBinarySearch(Fhat, Delta, Sens, 1e-6);
        EXPECT_GE(W, 0.0);
        EXPECT_LE(W, Fhat / Sens + 1e-9);
        double Probe = Fhat - Sens * W;
        EXPECT_LE(W * (Fhat * Fhat - Probe * Probe), Delta * (1.0 + 1e-3));
      }
    }
  }
}

TEST(QueryPolicyTest, BinarySearchMonotoneInBudget) {
  // A looser regret budget admits a wider importance weight.
  double Last = 0.0;
  for (double Delta : {1e-4, 1e-3, 1e-2, 1e-1}) {
    double W = queryBinarySearch(1.0, Delta, 0.25, 1e-6);
    EXPECT_GE(W, Last);
    Last = W;
  }
  EXPECT_GT(Last, 0.0);
}

TEST(QueryPolicyTest, AlmThresholdSkipsBelowRelativeFloor) {
  QueryPolicyConfig Cfg;
  Cfg.Kind = QueryPolicyKind::AlmThreshold;
  Cfg.AbsFloor = 0.0;
  Cfg.RelFloor = 0.1;
  auto P = QueryPolicy::create(Cfg);
  ASSERT_NE(P, nullptr);

  QueryDecision D;
  D.Variance = 1.0; // establishes the peak
  EXPECT_TRUE(P->shouldQuery(D));
  D.Variance = 0.5;
  EXPECT_TRUE(P->shouldQuery(D));
  D.Variance = 0.05; // below 0.1 * peak(1.0)
  EXPECT_FALSE(P->shouldQuery(D));
  D.Variance = 2.0; // new peak
  EXPECT_TRUE(P->shouldQuery(D));
  D.Variance = 0.15; // below 0.1 * peak(2.0) now
  EXPECT_FALSE(P->shouldQuery(D));
}

TEST(QueryPolicyTest, AlmThresholdAbsoluteFloorDominates) {
  QueryPolicyConfig Cfg;
  Cfg.Kind = QueryPolicyKind::AlmThreshold;
  Cfg.AbsFloor = 1e30; // unreachable: every consultation is a skip
  auto P = QueryPolicy::create(Cfg);
  QueryDecision D;
  D.Variance = 1e6;
  EXPECT_FALSE(P->shouldQuery(D));
}

TEST(QueryPolicyTest, CostRangeBootstrapsThenSkipsSettledPredictions) {
  QueryPolicyConfig Cfg;
  Cfg.Kind = QueryPolicyKind::CostRange;
  auto P = QueryPolicy::create(Cfg);
  ASSERT_NE(P, nullptr);

  // No labels yet: no cost scale, so the policy must query.
  QueryDecision D;
  D.Mean = 5.0;
  D.Variance = 1e-12;
  D.StreamPosition = 1;
  EXPECT_TRUE(P->shouldQuery(D));

  P->onLabel(1.0);
  EXPECT_TRUE(P->shouldQuery(D)); // one label: still no range
  P->onLabel(9.0);

  // A settled prediction (tiny variance) inside a wide cost range is
  // uninformative; a highly uncertain one still buys its label.
  D.Variance = 1e-12;
  EXPECT_FALSE(P->shouldQuery(D));
  D.Variance = 64.0;
  EXPECT_TRUE(P->shouldQuery(D));
}

TEST(QueryPolicyTest, CostRangeTightensWithStreamPosition) {
  // The same marginal prediction is queried early and declined late:
  // delta_t = c0 * log(t+1)/t shrinks the admissible interval.
  QueryPolicyConfig Cfg;
  Cfg.Kind = QueryPolicyKind::CostRange;
  auto probe = [&](uint64_t T) {
    auto P = QueryPolicy::create(Cfg);
    P->onLabel(0.0);
    P->onLabel(1.0);
    QueryDecision D;
    D.Mean = 0.5;
    D.Variance = 0.002;
    D.StreamPosition = T;
    return P->shouldQuery(D);
  };
  EXPECT_TRUE(probe(1));
  EXPECT_FALSE(probe(4000));
}

TEST(QueryPolicyTest, DecisionStreamIsDeterministic) {
  // The contract serve snapshots rely on: replaying the same labels and
  // consultations yields bit-identical decisions.
  QueryPolicyConfig Cfg;
  Cfg.Kind = QueryPolicyKind::CostRange;
  auto Run = [&] {
    auto P = QueryPolicy::create(Cfg);
    std::vector<bool> Decisions;
    double Label = 0.37;
    for (uint64_t T = 1; T <= 200; ++T) {
      QueryDecision D;
      D.Mean = std::sin(double(T) * 0.7) * 3.0;
      D.Variance = std::fabs(std::cos(double(T) * 1.3)) * 0.05;
      D.StreamPosition = T;
      bool Q = P->shouldQuery(D);
      Decisions.push_back(Q);
      if (Q) {
        Label = Label * 1.1 + 0.1;
        P->onLabel(Label);
      }
    }
    return Decisions;
  };
  EXPECT_EQ(Run(), Run());
}
