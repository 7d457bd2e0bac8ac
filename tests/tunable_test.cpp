//===- tests/tunable_test.cpp - tunable/ unit tests -----------*- C++ -*-===//

#include "support/Rng.h"
#include "tunable/Normalizer.h"
#include "tunable/ParamSpace.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

using namespace alic;

namespace {

ParamSpace smallSpace() {
  std::vector<Param> Params;
  Params.push_back(Param::range("u", ParamKind::Unroll, 1, 4, 1, 0));
  Params.push_back(
      Param::fromValues("t", ParamKind::CacheTile, {1, 2, 4, 8}, 1));
  Params.push_back(Param::fromValues("f", ParamKind::RegisterTile, {0, 1}, 2));
  return ParamSpace(std::move(Params));
}

} // namespace

TEST(ParamTest, RangeValues) {
  Param P = Param::range("u", ParamKind::Unroll, 1, 30, 1, 3);
  EXPECT_EQ(P.numValues(), 30u);
  EXPECT_EQ(P.value(0), 1);
  EXPECT_EQ(P.value(29), 30);
  EXPECT_EQ(P.loopIndex(), 3);
  EXPECT_EQ(P.kind(), ParamKind::Unroll);
}

TEST(ParamTest, SteppedRange) {
  Param P = Param::range("t", ParamKind::CacheTile, 4, 20, 8);
  EXPECT_EQ(P.values(), (std::vector<int>{4, 12, 20}));
}

TEST(ParamTest, FromValues) {
  Param P = Param::fromValues("x", ParamKind::CacheTile, {1, 8, 16, 99});
  EXPECT_EQ(P.numValues(), 4u);
  EXPECT_EQ(P.value(3), 99);
}

TEST(ParamSpaceTest, CardinalityIsProduct) {
  ParamSpace S = smallSpace();
  // 4 * 4 * 2 = 32.
  EXPECT_EQ(S.cardinality().toU64(), 32u);
}

TEST(ParamSpaceTest, EnumerateAllIsExhaustiveAndUnique) {
  ParamSpace S = smallSpace();
  std::vector<Config> All = S.enumerateAll();
  EXPECT_EQ(All.size(), 32u);
  std::set<uint64_t> Keys;
  for (const Config &C : All)
    Keys.insert(S.key(C));
  EXPECT_EQ(Keys.size(), 32u);
}

TEST(ParamSpaceTest, DecodeAndFeatures) {
  ParamSpace S = smallSpace();
  Config C = {3, 2, 1};
  EXPECT_EQ(S.decode(C), (std::vector<int>{4, 4, 1}));
  EXPECT_EQ(S.features(C), (std::vector<double>{4.0, 4.0, 1.0}));
}

TEST(ParamSpaceTest, ToStringMentionsNamesAndValues) {
  ParamSpace S = smallSpace();
  std::string Str = S.toString({0, 0, 0});
  EXPECT_NE(Str.find("u=1"), std::string::npos);
  EXPECT_NE(Str.find("t=1"), std::string::npos);
  EXPECT_NE(Str.find("f=0"), std::string::npos);
}

TEST(ParamSpaceTest, SampleStaysInRange) {
  ParamSpace S = smallSpace();
  Rng R(3);
  for (int I = 0; I != 200; ++I) {
    Config C = S.sample(R);
    ASSERT_EQ(C.size(), 3u);
    for (size_t D = 0; D != C.size(); ++D)
      EXPECT_LT(C[D], S.param(D).numValues());
  }
}

class SampleDistinctTest : public testing::TestWithParam<size_t> {};

TEST_P(SampleDistinctTest, ProducesExactlyKDistinct) {
  std::vector<Param> Params;
  Params.push_back(Param::range("a", ParamKind::Unroll, 1, 30, 1, 0));
  Params.push_back(Param::range("b", ParamKind::Unroll, 1, 30, 1, 1));
  ParamSpace S(std::move(Params));
  Rng R(GetParam());
  std::vector<Config> Sample = S.sampleDistinct(R, GetParam());
  EXPECT_EQ(Sample.size(), GetParam());
  std::set<uint64_t> Keys;
  for (const Config &C : Sample)
    Keys.insert(S.key(C));
  EXPECT_EQ(Keys.size(), Sample.size());
}

INSTANTIATE_TEST_SUITE_P(Counts, SampleDistinctTest,
                         testing::Values(1, 10, 100, 500));

TEST(ParamSpaceTest, SampleDistinctSmallSpaceReturnsWholeSpace) {
  ParamSpace S = smallSpace();
  Rng R(5);
  std::vector<Config> Sample = S.sampleDistinct(R, 1000);
  EXPECT_EQ(Sample.size(), 32u); // space only holds 32 points
}

TEST(ParamSpaceTest, KeyIsOrderSensitive) {
  ParamSpace S = smallSpace();
  EXPECT_NE(S.key({1, 0, 0}), S.key({0, 1, 0}));
  EXPECT_EQ(S.key({1, 2, 1}), S.key({1, 2, 1}));
}

//===----------------------------------------------------------------------===//
// Normalizer
//===----------------------------------------------------------------------===//

TEST(NormalizerTest, ZScoresHaveZeroMeanUnitVariance) {
  Rng R(7);
  std::vector<std::vector<double>> Rows;
  for (int I = 0; I != 500; ++I)
    Rows.push_back({R.nextUniform(5.0, 9.0), R.nextGaussian() * 10.0});
  Normalizer N = Normalizer::fit(Rows);
  double Sum[2] = {0, 0}, Sum2[2] = {0, 0};
  for (const auto &Row : Rows) {
    std::vector<double> Z = N.transform(Row);
    for (int D = 0; D != 2; ++D) {
      Sum[D] += Z[D];
      Sum2[D] += Z[D] * Z[D];
    }
  }
  for (int D = 0; D != 2; ++D) {
    EXPECT_NEAR(Sum[D] / 500.0, 0.0, 1e-9);
    EXPECT_NEAR(Sum2[D] / 499.0, 1.0, 1e-6);
  }
}

TEST(NormalizerTest, ConstantDimensionMapsToZero) {
  std::vector<std::vector<double>> Rows = {{7.0, 1.0}, {7.0, 2.0}};
  Normalizer N = Normalizer::fit(Rows);
  EXPECT_EQ(N.transform({7.0, 1.5})[0], 0.0);
}
