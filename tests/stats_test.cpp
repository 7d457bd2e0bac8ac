//===- tests/stats_test.cpp - stats/ unit tests ---------------*- C++ -*-===//

#include "stats/Distributions.h"
#include "stats/Metrics.h"
#include "stats/OnlineStats.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace alic;

//===----------------------------------------------------------------------===//
// Distributions
//===----------------------------------------------------------------------===//

TEST(DistributionsTest, LogGammaMatchesLibm) {
  for (double X : {0.1, 0.5, 1.0, 2.0, 3.5, 10.0, 50.0, 171.0})
    EXPECT_NEAR(logGamma(X), std::lgamma(X), 1e-9 * (1.0 + std::lgamma(X)));
}

TEST(DistributionsTest, NormalCdfKnownValues) {
  EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normalCdf(1.959963985), 0.975, 1e-8);
  EXPECT_NEAR(normalCdf(-1.959963985), 0.025, 1e-8);
  EXPECT_NEAR(normalCdf(3.0), 0.998650101968370, 1e-9);
}

TEST(DistributionsTest, NormalQuantileRoundTrip) {
  for (double P = 0.001; P < 1.0; P += 0.013)
    EXPECT_NEAR(normalCdf(normalQuantile(P)), P, 1e-9);
}

TEST(DistributionsTest, NormalPdfIntegratesToCdf) {
  // Trapezoidal integral of the pdf matches the cdf difference.
  double Lo = -2.0, Hi = 1.5;
  int Steps = 20000;
  double H = (Hi - Lo) / Steps;
  double Sum = 0.5 * (normalPdf(Lo) + normalPdf(Hi));
  for (int I = 1; I != Steps; ++I)
    Sum += normalPdf(Lo + I * H);
  EXPECT_NEAR(Sum * H, normalCdf(Hi) - normalCdf(Lo), 1e-7);
}

TEST(DistributionsTest, StudentTCdfSymmetry) {
  for (double Df : {1.0, 2.0, 5.0, 30.0})
    for (double X : {0.1, 0.7, 1.5, 3.0})
      EXPECT_NEAR(studentTCdf(X, Df) + studentTCdf(-X, Df), 1.0, 1e-10);
}

TEST(DistributionsTest, StudentTQuantileKnownValues) {
  // Classic t-table: 97.5% quantiles.
  EXPECT_NEAR(studentTQuantile(0.975, 1.0), 12.706, 2e-3);
  EXPECT_NEAR(studentTQuantile(0.975, 4.0), 2.776, 2e-3);
  EXPECT_NEAR(studentTQuantile(0.975, 34.0), 2.032, 2e-3);
  EXPECT_NEAR(studentTQuantile(0.95, 9.0), 1.833, 2e-3);
}

TEST(DistributionsTest, StudentTQuantileRoundTrip) {
  for (double Df : {2.0, 5.0, 17.0, 60.0})
    for (double P = 0.02; P < 1.0; P += 0.07)
      EXPECT_NEAR(studentTCdf(studentTQuantile(P, Df), Df), P, 1e-8);
}

TEST(DistributionsTest, StudentTApproachesNormalForLargeDf) {
  for (double P : {0.1, 0.25, 0.5, 0.9, 0.99})
    EXPECT_NEAR(studentTQuantile(P, 10000.0), normalQuantile(P), 2e-3);
}

TEST(DistributionsTest, RegularizedBetaBounds) {
  EXPECT_EQ(regularizedBeta(0.0, 2.0, 3.0), 0.0);
  EXPECT_EQ(regularizedBeta(1.0, 2.0, 3.0), 1.0);
  // I_x(1,1) is the identity.
  for (double X = 0.1; X < 1.0; X += 0.2)
    EXPECT_NEAR(regularizedBeta(X, 1.0, 1.0), X, 1e-12);
}

//===----------------------------------------------------------------------===//
// OnlineStats
//===----------------------------------------------------------------------===//

TEST(OnlineStatsTest, MatchesNaiveComputation) {
  Rng R(5);
  std::vector<double> Values;
  OnlineStats S;
  for (int I = 0; I != 1000; ++I) {
    double V = R.nextUniform(-3.0, 7.0);
    Values.push_back(V);
    S.add(V);
  }
  double Mean = 0.0;
  for (double V : Values)
    Mean += V;
  Mean /= Values.size();
  double Var = 0.0;
  for (double V : Values)
    Var += (V - Mean) * (V - Mean);
  Var /= (Values.size() - 1);
  EXPECT_NEAR(S.mean(), Mean, 1e-10);
  EXPECT_NEAR(S.variance(), Var, 1e-10);
  EXPECT_EQ(S.count(), 1000u);
}

TEST(OnlineStatsTest, EmptyAndSingle) {
  OnlineStats S;
  EXPECT_EQ(S.mean(), 0.0);
  EXPECT_EQ(S.variance(), 0.0);
  S.add(5.0);
  EXPECT_EQ(S.mean(), 5.0);
  EXPECT_EQ(S.variance(), 0.0);
  EXPECT_EQ(S.min(), 5.0);
  EXPECT_EQ(S.max(), 5.0);
}

TEST(OnlineStatsTest, ConfidenceIntervalContainsMeanForCleanData) {
  OnlineStats S;
  Rng R(23);
  for (int I = 0; I != 35; ++I)
    S.add(10.0 + 0.1 * R.nextGaussian());
  ConfidenceInterval Ci = S.confidenceInterval(0.95);
  EXPECT_LT(Ci.Lower, 10.05);
  EXPECT_GT(Ci.Upper, 9.95);
  EXPECT_GT(Ci.halfWidth(), 0.0);
}

TEST(OnlineStatsTest, CiOverMeanShrinksWithSamples) {
  Rng R(29);
  OnlineStats Small, Large;
  for (int I = 0; I != 5; ++I)
    Small.add(1.0 + 0.05 * R.nextGaussian());
  for (int I = 0; I != 500; ++I)
    Large.add(1.0 + 0.05 * R.nextGaussian());
  EXPECT_GT(Small.ciOverMean(), Large.ciOverMean());
}

TEST(OnlineStatsTest, CiOverMeanInfiniteWhenUndefined) {
  OnlineStats S;
  EXPECT_TRUE(std::isinf(S.ciOverMean()));
  S.add(1.0);
  EXPECT_TRUE(std::isinf(S.ciOverMean()));
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(MetricsTest, Rmse) {
  std::vector<double> P = {1.0, 2.0, 3.0};
  std::vector<double> A = {1.0, 4.0, 3.0};
  EXPECT_NEAR(rootMeanSquaredError(P, A), std::sqrt(4.0 / 3.0), 1e-12);
}

TEST(MetricsTest, PerfectPrediction) {
  std::vector<double> A = {1.0, 2.0, 3.0};
  EXPECT_EQ(rootMeanSquaredError(A, A), 0.0);
}

TEST(MetricsTest, GeometricMean) {
  EXPECT_NEAR(geometricMean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geometricMean({2.0, 2.0, 2.0}), 2.0, 1e-12);
  EXPECT_EQ(geometricMean({}), 0.0);
}

TEST(MetricsTest, ArithmeticMean) {
  EXPECT_EQ(arithmeticMean(nullptr, 0), 0.0);
  const double Values[] = {1.0, 2.0, 6.0};
  EXPECT_NEAR(arithmeticMean(Values, 3), 3.0, 1e-12);
}
