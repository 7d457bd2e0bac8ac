//===- tests/support_test.cpp - support/ unit tests -----------*- C++ -*-===//

#include "support/BigUInt.h"
#include "support/Env.h"
#include "support/Error.h"
#include "support/FlatRows.h"
#include "support/Format.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Serialize.h"
#include "support/Scheduler.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <set>
#include <unordered_map>

using namespace alic;

//===----------------------------------------------------------------------===//
// Rng
//===----------------------------------------------------------------------===//

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I != 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 2);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng R(7);
  for (uint64_t Bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int I = 0; I != 200; ++I)
      EXPECT_LT(R.nextBounded(Bound), Bound);
  }
}

TEST(RngTest, NextBoundedIsRoughlyUniform) {
  Rng R(11);
  const int Buckets = 8, Draws = 80000;
  int Counts[Buckets] = {0};
  for (int I = 0; I != Draws; ++I)
    ++Counts[R.nextBounded(Buckets)];
  for (int C : Counts)
    EXPECT_NEAR(double(C), Draws / double(Buckets), 0.05 * Draws / Buckets);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng R(3);
  for (int I = 0; I != 1000; ++I) {
    double X = R.nextDouble();
    EXPECT_GE(X, 0.0);
    EXPECT_LT(X, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng R(5);
  double Sum = 0.0, Sum2 = 0.0;
  const int N = 200000;
  for (int I = 0; I != N; ++I) {
    double G = R.nextGaussian();
    Sum += G;
    Sum2 += G * G;
  }
  EXPECT_NEAR(Sum / N, 0.0, 0.02);
  EXPECT_NEAR(Sum2 / N, 1.0, 0.03);
}

TEST(RngTest, ExponentialMean) {
  Rng R(13);
  double Sum = 0.0;
  const int N = 100000;
  for (int I = 0; I != N; ++I)
    Sum += R.nextExponential(2.5);
  EXPECT_NEAR(Sum / N, 2.5, 0.08);
}

TEST(RngTest, BernoulliRate) {
  Rng R(17);
  int Hits = 0;
  const int N = 100000;
  for (int I = 0; I != N; ++I)
    Hits += R.nextBernoulli(0.3);
  EXPECT_NEAR(double(Hits) / N, 0.3, 0.01);
}

TEST(RngTest, SampleIndicesAreDistinctAndInRange) {
  Rng R(21);
  for (size_t N : {10ul, 100ul, 1000ul}) {
    for (size_t K : {1ul, 5ul, N / 2, N}) {
      std::vector<size_t> S = R.sampleIndices(N, K);
      EXPECT_EQ(S.size(), std::min(N, K));
      std::set<size_t> Unique(S.begin(), S.end());
      EXPECT_EQ(Unique.size(), S.size());
      for (size_t V : S)
        EXPECT_LT(V, N);
    }
  }
}

TEST(RngTest, SampleIndicesFullPermutation) {
  Rng R(23);
  std::vector<size_t> S = R.sampleIndices(50, 50);
  std::set<size_t> Unique(S.begin(), S.end());
  EXPECT_EQ(Unique.size(), 50u);
}

namespace {

/// Partial Fisher-Yates that stores only the displaced positions, in a
/// hash map.  sampleIndices() materializes the identity permutation
/// instead; for K < N the two must draw the same indices and leave the
/// generator in the same state.
std::vector<size_t> sampleIndicesByMap(Rng &R, size_t N, size_t K) {
  std::vector<size_t> Result;
  std::unordered_map<size_t, size_t> Overrides;
  auto valueAt = [&](size_t I) {
    auto It = Overrides.find(I);
    return It == Overrides.end() ? I : It->second;
  };
  for (size_t I = 0; I != K; ++I) {
    size_t J = I + static_cast<size_t>(R.nextBounded(N - I));
    Result.push_back(valueAt(J));
    Overrides[J] = valueAt(I); // position J now holds what I held
  }
  return Result;
}

} // namespace

TEST(RngTest, SampleIndicesMatchesDisplacedPositionMap) {
  Rng Cases(0x5a3dull);
  for (int Case = 0; Case != 400; ++Case) {
    // Alternate small and learner-pool-sized populations; K < N always.
    size_t N = 1 + size_t(Cases.nextBounded(Case % 2 ? 64 : 8000));
    size_t K = size_t(Cases.nextBounded(N));
    uint64_t Seed = Cases.next();
    Rng Flat(Seed), Map(Seed);
    ASSERT_EQ(Flat.sampleIndices(N, K), sampleIndicesByMap(Map, N, K))
        << "N=" << N << " K=" << K << " seed=" << Seed;
    ASSERT_EQ(Flat.next(), Map.next())
        << "N=" << N << " K=" << K << " seed=" << Seed;
  }
}

TEST(RngTest, HashCombineSensitiveToOrder) {
  EXPECT_NE(hashCombine({1, 2}), hashCombine({2, 1}));
  EXPECT_NE(hashCombine({1}), hashCombine({1, 0}));
  EXPECT_EQ(hashCombine({5, 6, 7}), hashCombine({5, 6, 7}));
}

//===----------------------------------------------------------------------===//
// BigUInt
//===----------------------------------------------------------------------===//

TEST(BigUIntTest, ConstructAndToString) {
  EXPECT_EQ(BigUInt().toString(), "0");
  EXPECT_EQ(BigUInt(1).toString(), "1");
  EXPECT_EQ(BigUInt(123456789).toString(), "123456789");
  EXPECT_EQ(BigUInt(~0ull).toString(), "18446744073709551615");
}

TEST(BigUIntTest, MulScalarChain) {
  // 2^96 via repeated scalar multiplication.
  BigUInt V(1);
  for (int I = 0; I != 96; ++I)
    V.mulScalar(2);
  EXPECT_EQ(V.toString(), "79228162514264337593543950336");
}

TEST(BigUIntTest, DivModScalarRoundTrip) {
  Rng R(3);
  for (int I = 0; I != 200; ++I) {
    uint64_t A = R.next();
    uint32_t D = static_cast<uint32_t>(R.nextBounded(1000000) + 1);
    BigUInt V(A);
    uint32_t Rem = V.divModScalar(D);
    EXPECT_EQ(Rem, A % D);
    EXPECT_EQ(V.toU64(), A / D);
  }
}

TEST(BigUIntTest, Comparisons) {
  EXPECT_LT(BigUInt(5), BigUInt(7));
  BigUInt Big(1ull << 40);
  Big.mulScalar(1u << 20).mulScalar(1u << 20); // 2^80
  EXPECT_GT(Big, BigUInt(~0ull));
  EXPECT_EQ(BigUInt(42), BigUInt(42));
}

TEST(BigUIntTest, ToDoubleApproximation) {
  BigUInt V(1);
  for (int I = 0; I != 90; ++I)
    V.mulScalar(10);
  EXPECT_NEAR(V.toDouble() / 1e90, 1.0, 1e-9);
}

TEST(BigUIntTest, ToScientific) {
  BigUInt V(378);
  for (int I = 0; I != 12; ++I)
    V.mulScalar(10);
  EXPECT_EQ(V.toScientific(3), "3.78e14");
  EXPECT_EQ(BigUInt(0).toScientific(3), "0");
  EXPECT_EQ(BigUInt(7).toScientific(1), "7e0");
}

//===----------------------------------------------------------------------===//
// Format
//===----------------------------------------------------------------------===//

TEST(FormatTest, FormatString) {
  EXPECT_EQ(formatString("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(formatString("%.2f", 1.005), "1.00");
}

TEST(FormatTest, PaperNumberRanges) {
  EXPECT_EQ(formatPaperNumber(0.0), "0");
  EXPECT_EQ(formatPaperNumber(57.46), "57.46");
  EXPECT_EQ(formatPaperNumber(26200.0), "2.62e4");
  EXPECT_EQ(formatPaperNumber(0.0001), "1.00e-4");
}

TEST(FormatTest, Seconds) {
  EXPECT_EQ(formatSeconds(0.5e-6), "500.0 ns");
  EXPECT_EQ(formatSeconds(0.0123), "12.3 ms");
  EXPECT_EQ(formatSeconds(90.0), "90.00 s");
  EXPECT_EQ(formatSeconds(3600.0), "60.0 min");
}

TEST(FormatTest, PadAndJoin) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padLeft("abcde", 3), "abcde");
  EXPECT_EQ(joinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(joinStrings({}, ","), "");
}

//===----------------------------------------------------------------------===//
// Table
//===----------------------------------------------------------------------===//

TEST(TableTest, CsvEscaping) {
  Table T({"a", "b"});
  T.addRow({"x,y", "he said \"hi\""});
  std::string Csv = T.toCsv();
  EXPECT_NE(Csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(Csv.find("\"he said \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, RowCount) {
  Table T({"h"});
  EXPECT_EQ(T.numRows(), 0u);
  T.addRow({"1"});
  T.addRow({"2"});
  EXPECT_EQ(T.numRows(), 2u);
}

TEST(TableTest, WriteCsvRoundTrip) {
  Table T({"x", "y"});
  T.addRow({"1", "2"});
  std::string Path = testing::TempDir() + "/alic_table_test.csv";
  ASSERT_TRUE(T.writeCsv(Path));
  std::FILE *F = std::fopen(Path.c_str(), "r");
  ASSERT_NE(F, nullptr);
  char Buf[64] = {0};
  ASSERT_NE(std::fgets(Buf, sizeof(Buf), F), nullptr);
  EXPECT_STREQ(Buf, "x,y\n");
  std::fclose(F);
}

//===----------------------------------------------------------------------===//
// Env
//===----------------------------------------------------------------------===//

TEST(EnvTest, StringDefault) {
  unsetenv("ALIC_TEST_VAR");
  EXPECT_EQ(getEnvString("ALIC_TEST_VAR", "dflt"), "dflt");
  setenv("ALIC_TEST_VAR", "value", 1);
  EXPECT_EQ(getEnvString("ALIC_TEST_VAR", "dflt"), "value");
  unsetenv("ALIC_TEST_VAR");
}

TEST(EnvTest, IntParsing) {
  setenv("ALIC_TEST_INT", "123", 1);
  EXPECT_EQ(getEnvInt("ALIC_TEST_INT", 7), 123);
  setenv("ALIC_TEST_INT", "garbage", 1);
  EXPECT_EQ(getEnvInt("ALIC_TEST_INT", 7), 7);
  unsetenv("ALIC_TEST_INT");
}

TEST(EnvTest, ScalePresetNames) {
  EXPECT_STREQ(scaleName(ScaleKind::Smoke), "smoke");
  EXPECT_STREQ(scaleName(ScaleKind::Bench), "bench");
  EXPECT_STREQ(scaleName(ScaleKind::Paper), "paper");
}

TEST(EnvTest, ScaleNamesParseExactly) {
  ScaleKind Kind = ScaleKind::Bench;
  for (ScaleKind Want :
       {ScaleKind::Smoke, ScaleKind::Bench, ScaleKind::Paper}) {
    EXPECT_TRUE(parseScaleKind(scaleName(Want), Kind));
    EXPECT_EQ(Kind, Want);
  }
  // A typo, a case or whitespace variant, and the empty string are
  // refused, and the output keeps its value.
  for (const char *Bad : {"smok", "Smoke", "paper ", " bench", ""}) {
    EXPECT_FALSE(parseScaleKind(Bad, Kind)) << Bad;
    EXPECT_EQ(Kind, ScaleKind::Paper) << Bad;
  }
  // Library callers keep the Bench fallback; unset means Bench too.
  std::string Saved = getEnvString("ALIC_SCALE", "");
  setenv("ALIC_SCALE", "smok", 1);
  EXPECT_EQ(getScaleKind(), ScaleKind::Bench);
  setenv("ALIC_SCALE", "paper", 1);
  EXPECT_EQ(getScaleKind(), ScaleKind::Paper);
  unsetenv("ALIC_SCALE");
  EXPECT_EQ(getScaleKind(), ScaleKind::Bench);
  if (!Saved.empty())
    setenv("ALIC_SCALE", Saved.c_str(), 1);
}

//===----------------------------------------------------------------------===//
// Scheduler (basic pool behavior; nesting and stealing live in
// scheduler_test.cpp)
//===----------------------------------------------------------------------===//

TEST(SchedulerTest, ShardedForCoversRangeExactlyOnce) {
  // Shard size 1 is the one-task-per-index loop (campaign cells).
  Scheduler Pool(3);
  for (auto [N, ShardSize] : {std::pair<size_t, size_t>{100, 7}, {64, 1}}) {
    std::vector<std::atomic<int>> Hits(N);
    shardedFor(&Pool, N, ShardSize,
               [&Hits](size_t, size_t Begin, size_t End) {
                 for (size_t I = Begin; I != End; ++I)
                   ++Hits[I];
               });
    for (auto &H : Hits)
      EXPECT_EQ(H.load(), 1) << N << " / " << ShardSize;
  }
}

TEST(SchedulerTest, ShardGridIndependentOfWorkerCount) {
  // The shard boundaries are a pure function of (N, ShardSize): the
  // sequential path, a 1-thread pool, and a 5-thread pool must all see
  // the same grid — the property candidate scoring's determinism rests on.
  auto gridOf = [](Scheduler *Pool) {
    std::vector<std::tuple<size_t, size_t, size_t>> Grid(4);
    shardedFor(Pool, 25, 8, [&Grid](size_t Shard, size_t Begin, size_t End) {
      Grid[Shard] = {Shard, Begin, End};
    });
    return Grid;
  };
  std::vector<std::tuple<size_t, size_t, size_t>> Expected = {
      {0, 0, 8}, {1, 8, 16}, {2, 16, 24}, {3, 24, 25}};
  EXPECT_EQ(gridOf(nullptr), Expected);
  Scheduler One(1), Five(5);
  EXPECT_EQ(gridOf(&One), Expected);
  EXPECT_EQ(gridOf(&Five), Expected);
}

TEST(SchedulerTest, ShardedForRunsInlineWithoutPool) {
  // No pool: shards run on the calling thread, in shard order.
  std::vector<size_t> Order;
  shardedFor(nullptr, 10, 3, [&Order](size_t Shard, size_t, size_t) {
    Order.push_back(Shard);
  });
  EXPECT_EQ(Order, (std::vector<size_t>{0, 1, 2, 3}));
}

//===----------------------------------------------------------------------===//
// FlatRows
//===----------------------------------------------------------------------===//

TEST(FlatRowsTest, PushFixesDimAndStoresContiguously) {
  FlatRows Rows;
  EXPECT_TRUE(Rows.empty());
  Rows.push({1.0, 2.0, 3.0});
  Rows.push({4.0, 5.0, 6.0});
  EXPECT_EQ(Rows.size(), 2u);
  EXPECT_EQ(Rows.dim(), 3u);
  EXPECT_EQ(Rows.row(1), Rows.row(0) + 3); // one buffer, row-major
  EXPECT_DOUBLE_EQ(Rows[1][2], 6.0);
  EXPECT_EQ(Rows.raw().size(), 6u);
}

TEST(FlatRowsTest, ConvertsFromNestedVectorsAndIterators) {
  std::vector<std::vector<double>> Nested = {{1.0, 2.0}, {3.0, 4.0},
                                             {5.0, 6.0}};
  FlatRows All = Nested;
  EXPECT_EQ(All.size(), 3u);
  EXPECT_DOUBLE_EQ(All[2][1], 6.0);

  FlatRows Sub(Nested.begin() + 1, Nested.end());
  EXPECT_EQ(Sub.size(), 2u);
  EXPECT_DOUBLE_EQ(Sub[0][0], 3.0);

  FlatRows Braced = {{7.0}, {8.0}};
  EXPECT_EQ(Braced.dim(), 1u);
  EXPECT_DOUBLE_EQ(Braced[1][0], 8.0);
}

TEST(FlatRowsTest, PopRowAndClear) {
  FlatRows Rows = {{1.0, 2.0}, {3.0, 4.0}};
  Rows.popRow();
  EXPECT_EQ(Rows.size(), 1u);
  EXPECT_DOUBLE_EQ(Rows[0][1], 2.0);
  Rows.push({9.0, 9.0});
  EXPECT_EQ(Rows.size(), 2u);
  Rows.clear();
  EXPECT_TRUE(Rows.empty());
  EXPECT_EQ(Rows.dim(), 2u); // dimensionality survives a clear
}

TEST(RowRefTest, ViewsVectorsWithoutCopying) {
  std::vector<double> V = {1.0, 2.0, 3.0};
  RowRef R = V;
  EXPECT_EQ(R.data(), V.data());
  EXPECT_EQ(R.size(), 3u);
  EXPECT_DOUBLE_EQ(R[1], 2.0);
  EXPECT_EQ(R.toVector(), V);
}

//===----------------------------------------------------------------------===//
// Serialize
//===----------------------------------------------------------------------===//

TEST(SerializeTest, ScalarRoundTrip) {
  ByteWriter W;
  W.writeU8(0xab);
  W.writeU16(0xbeef);
  W.writeU32(0xdeadbeefu);
  W.writeU64(0x0123456789abcdefull);
  W.writeDouble(-1.5);
  W.writeString("campaign");

  ByteReader R(W.bytes());
  uint8_t U8;
  uint16_t U16;
  uint32_t U32;
  uint64_t U64;
  double D;
  std::string S;
  EXPECT_TRUE(R.readU8(U8));
  EXPECT_TRUE(R.readU16(U16));
  EXPECT_TRUE(R.readU32(U32));
  EXPECT_TRUE(R.readU64(U64));
  EXPECT_TRUE(R.readDouble(D));
  EXPECT_TRUE(R.readString(S));
  EXPECT_EQ(U8, 0xab);
  EXPECT_EQ(U16, 0xbeef);
  EXPECT_EQ(U32, 0xdeadbeefu);
  EXPECT_EQ(U64, 0x0123456789abcdefull);
  EXPECT_DOUBLE_EQ(D, -1.5);
  EXPECT_EQ(S, "campaign");
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());
}

TEST(SerializeTest, DoubleBitsSurviveExactly) {
  // Values whose decimal renderings are lossy must still round trip: the
  // writer stores raw IEEE bits.
  const double Values[] = {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324,
                           -0.0,  1e308};
  ByteWriter W;
  for (double V : Values)
    W.writeDouble(V);
  ByteReader R(W.bytes());
  for (double V : Values) {
    double Read;
    ASSERT_TRUE(R.readDouble(Read));
    uint64_t WantBits, GotBits;
    std::memcpy(&WantBits, &V, sizeof(WantBits));
    std::memcpy(&GotBits, &Read, sizeof(GotBits));
    EXPECT_EQ(GotBits, WantBits);
  }
}

TEST(SerializeTest, VectorRoundTrip) {
  ByteWriter W;
  W.writeU16s({1, 2, 65535});
  W.writeDoubles({0.25, -7.5});
  W.writeDoubles({});
  ByteReader R(W.bytes());
  std::vector<uint16_t> U16s;
  std::vector<double> Doubles, Empty;
  EXPECT_TRUE(R.readU16s(U16s));
  EXPECT_TRUE(R.readDoubles(Doubles));
  EXPECT_TRUE(R.readDoubles(Empty));
  EXPECT_EQ(U16s, (std::vector<uint16_t>{1, 2, 65535}));
  EXPECT_EQ(Doubles, (std::vector<double>{0.25, -7.5}));
  EXPECT_TRUE(Empty.empty());
  EXPECT_TRUE(R.atEnd());
}

TEST(SerializeTest, TruncationIsStickyNotFatal) {
  ByteWriter W;
  W.writeU64(7);
  std::vector<uint8_t> Bytes = W.bytes();
  Bytes.pop_back(); // truncate
  ByteReader R(std::move(Bytes));
  uint64_t Value;
  EXPECT_FALSE(R.readU64(Value));
  EXPECT_FALSE(R.ok());
  uint8_t Byte;
  EXPECT_FALSE(R.readU8(Byte)); // sticky: later reads fail too
}

TEST(SerializeTest, HugeLengthPrefixIsRejected) {
  // A corrupt length prefix must not trigger a giant allocation.
  ByteWriter W;
  W.writeU64(uint64_t(1) << 60);
  ByteReader R(W.bytes());
  std::vector<double> Doubles;
  EXPECT_FALSE(R.readDoubles(Doubles));
  EXPECT_FALSE(R.ok());
}

TEST(SerializeTest, AtomicFileRoundTrip) {
  std::string Path = ::testing::TempDir() + "alic_serialize_test.bin";
  ByteWriter W;
  W.writeString("hello");
  W.writeDouble(2.5);
  ASSERT_TRUE(W.writeFileDurable(Path).ok());

  ByteReader R({});
  ASSERT_TRUE(ByteReader::fromFile(Path, R));
  std::string S;
  double D;
  EXPECT_TRUE(R.readString(S));
  EXPECT_TRUE(R.readDouble(D));
  EXPECT_EQ(S, "hello");
  EXPECT_DOUBLE_EQ(D, 2.5);
  EXPECT_TRUE(R.atEnd());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Json hardening (untrusted socket input reaches this parser)
//===----------------------------------------------------------------------===//

TEST(JsonTest, NestingDepthIsCapped) {
  // A hostile line of nested containers must fail cleanly, not overflow
  // the parser's stack.
  std::string Deep(100000, '[');
  JsonValue Out;
  EXPECT_FALSE(parseJson(Deep.c_str(), Out));
  std::string DeepObjects;
  for (int I = 0; I != 100000; ++I)
    DeepObjects += "{\"k\":";
  EXPECT_FALSE(parseJson(DeepObjects.c_str(), Out));
  // Shallow documents (our surfaces nest 2-3 levels) still parse.
  EXPECT_TRUE(parseJson("[[[[[1]]]]]", Out));
}

TEST(JsonTest, NumbersFollowJsonGrammarAndStayFinite) {
  JsonValue Out;
  for (const char *Bad :
       {"nan", "NaN", "inf", "Infinity", "-inf", "0x12", "1e999", "-1e999",
        "01", "+1", ".5", "1.", "1e", "1e+", "--1"})
    EXPECT_FALSE(parseJson(Bad, Out)) << Bad;
  for (const char *Good : {"0", "-0", "12", "-3.5", "1e9", "2.5E-3", "1e+2"})
    EXPECT_TRUE(parseJson(Good, Out)) << Good;
  EXPECT_TRUE(parseJson("6.25e-2", Out));
  EXPECT_EQ(Out.K, JsonValue::Kind::Number);
  EXPECT_DOUBLE_EQ(Out.Number, 0.0625);
  // ...including inside containers (the observe costs path).
  EXPECT_FALSE(parseJson("{\"costs\":[nan]}", Out));
  EXPECT_FALSE(parseJson("{\"costs\":[1e999]}", Out));
}

TEST(JsonTest, FormatJsonDoubleNeverEmitsInvalidTokens) {
  EXPECT_EQ(formatJsonDouble(std::nan("")), "null");
  EXPECT_EQ(formatJsonDouble(HUGE_VAL), "null");
  EXPECT_EQ(formatJsonDouble(-HUGE_VAL), "null");
  // Finite values still round-trip bit-exactly.
  double Value = 0.1 + 0.2;
  JsonValue Out;
  ASSERT_TRUE(parseJson(formatJsonDouble(Value).c_str(), Out));
  EXPECT_EQ(Out.Number, Value);
}

//===----------------------------------------------------------------------===//
// Backoff
//===----------------------------------------------------------------------===//

TEST(BackoffTest, LadderDoublesToTheCap) {
  // The ledger-append ladder: 1, 2, 4, 4, ... ms.
  EXPECT_EQ(backoffDelayMs(1, 4, 0), 1u);
  EXPECT_EQ(backoffDelayMs(1, 4, 1), 2u);
  EXPECT_EQ(backoffDelayMs(1, 4, 2), 4u);
  EXPECT_EQ(backoffDelayMs(1, 4, 3), 4u);
  EXPECT_EQ(backoffDelayMs(1, 4, 100), 4u);
  // alic_serve's accept ladder, which never overflows however long the
  // failures last.
  uint64_t Prev = 0;
  for (uint64_t Attempt = 0; Attempt != 100; ++Attempt) {
    uint64_t Delay = backoffDelayMs(100, 1600, Attempt);
    EXPECT_EQ(Delay, Attempt < 4 ? 100u << Attempt : 1600u);
    EXPECT_GE(Delay, Prev);
    Prev = Delay;
  }
  EXPECT_EQ(backoffDelayMs(100, 1600, ~0ull), 1600u);
}
