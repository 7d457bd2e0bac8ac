//===- tests/transform_test.cpp - transform/ unit tests -------*- C++ -*-===//
//
// TransformPlan is the bridge from a configuration to the per-loop
// factors the cost model prices: every parameter kind must land on its
// bound loop, and loops no parameter names stay at the identity.
//
//===----------------------------------------------------------------------===//

#include "spapt/Kernels.h"
#include "transform/TransformPlan.h"

#include <gtest/gtest.h>

using namespace alic;

TEST(TransformPlanTest, FromConfigRoutesKinds) {
  KernelBundle B = buildMm(10);
  ParamSpace Space(B.Params);
  // U_i1=4 (ordinal 3), U_i2=1, U_i3=2, T_i1=1, T_i2=4, T_i3=1.
  Config C = {3, 0, 1, 0, 1, 0};
  TransformPlan Plan = TransformPlan::fromConfig(Space, C);
  EXPECT_EQ(Plan.factors(0).Unroll, 4);
  EXPECT_EQ(Plan.factors(1).Unroll, 1);
  EXPECT_EQ(Plan.factors(2).Unroll, 2);
  EXPECT_EQ(Plan.factors(1).CacheTile, 4);
  EXPECT_EQ(Plan.factors(0).CacheTile, 1);
}

TEST(TransformPlanTest, EveryKindLandsOnItsLoop) {
  std::vector<Param> Params;
  Params.push_back(Param::range("U", ParamKind::Unroll, 1, 4, 1, 0));
  Params.push_back(
      Param::fromValues("T", ParamKind::CacheTile, {1, 16, 32}, 1));
  Params.push_back(Param::range("RT", ParamKind::RegisterTile, 1, 8, 1, 0));
  ParamSpace Space(std::move(Params));
  TransformPlan Plan = TransformPlan::fromConfig(Space, {2, 1, 3});
  EXPECT_EQ(Plan.factors(0).Unroll, 3);
  EXPECT_EQ(Plan.factors(0).RegisterTile, 4);
  EXPECT_EQ(Plan.factors(0).CacheTile, 1);
  EXPECT_EQ(Plan.factors(1).CacheTile, 16);
  EXPECT_EQ(Plan.factors(1).Unroll, 1);
  // A loop no parameter names keeps the identity factors.
  EXPECT_EQ(Plan.factors(2).Unroll, 1);
  EXPECT_EQ(Plan.factors(2).CacheTile, 1);
  EXPECT_EQ(Plan.factors(2).RegisterTile, 1);
}
