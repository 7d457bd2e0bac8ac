//===- tests/failpoint_test.cpp - fault-injection unit tests --*- C++ -*-===//
//
// The failpoint registry itself (arming, nth/count windows, env-string
// parsing, counters) plus the durable-write discipline it targets:
// writeFileDurable must never publish a torn or unsynced file, and a
// crash firing must terminate the process at the site.
//
//===----------------------------------------------------------------------===//

#include "support/FailPoint.h"
#include "support/Serialize.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <string>

using namespace alic;

namespace {

/// Every test starts and ends with a clean registry; a leaked arming
/// would silently poison unrelated suites.
class FailPointTest : public ::testing::Test {
protected:
  void SetUp() override { disarmAllFailPoints(); }
  void TearDown() override { disarmAllFailPoints(); }
};

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "alic_failpoint_" + Name;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

bool exists(const std::string &Path) {
  std::ifstream In(Path);
  return In.good();
}

} // namespace

//===----------------------------------------------------------------------===//
// Registry semantics
//===----------------------------------------------------------------------===//

TEST_F(FailPointTest, DisarmedSitesNeverFire) {
  for (int I = 0; I != 100; ++I)
    EXPECT_FALSE(ALIC_FAILPOINT("fp.test.unarmed").Fire);
  // The disabled fast path touches no registry state at all.
  EXPECT_EQ(failPointHits("fp.test.unarmed"), 0u);
}

TEST_F(FailPointTest, ArmedSiteFiresWithErrno) {
  FailSpec Spec;
  Spec.Errno = ENOSPC;
  armFailPoint("fp.test.a", Spec);
  FailOutcome F = ALIC_FAILPOINT("fp.test.a");
  EXPECT_TRUE(F.Fire);
  EXPECT_EQ(F.Mode, FailMode::Error);
  EXPECT_EQ(F.Errno, ENOSPC);
  // Other sites are unaffected while this one is armed.
  EXPECT_FALSE(ALIC_FAILPOINT("fp.test.other").Fire);
}

TEST_F(FailPointTest, NthSkipsEarlyHitsAndCountBoundsFirings) {
  FailSpec Spec;
  Spec.Nth = 3;
  Spec.Count = 2;
  armFailPoint("fp.test.window", Spec);
  bool Fired[6];
  for (bool &B : Fired)
    B = ALIC_FAILPOINT("fp.test.window").Fire;
  EXPECT_FALSE(Fired[0]);
  EXPECT_FALSE(Fired[1]);
  EXPECT_TRUE(Fired[2]); // hits 3 and 4 fire, then the window closes
  EXPECT_TRUE(Fired[3]);
  EXPECT_FALSE(Fired[4]);
  EXPECT_FALSE(Fired[5]);
  EXPECT_EQ(failPointHits("fp.test.window"), 6u);
  EXPECT_EQ(failPointFires("fp.test.window"), 2u);
}

TEST_F(FailPointTest, RearmingResetsTheHitCounter) {
  FailSpec Spec;
  Spec.Nth = 2;
  armFailPoint("fp.test.rearm", Spec);
  EXPECT_FALSE(ALIC_FAILPOINT("fp.test.rearm").Fire);
  EXPECT_TRUE(ALIC_FAILPOINT("fp.test.rearm").Fire);
  armFailPoint("fp.test.rearm", Spec); // counter back to zero
  EXPECT_FALSE(ALIC_FAILPOINT("fp.test.rearm").Fire);
  EXPECT_TRUE(ALIC_FAILPOINT("fp.test.rearm").Fire);
}

TEST_F(FailPointTest, ScopedFailPointDisarmsOnDestruction) {
  {
    ScopedFailPoint Fp("fp.test.scoped", FailSpec());
    EXPECT_TRUE(ALIC_FAILPOINT("fp.test.scoped").Fire);
  }
  EXPECT_FALSE(ALIC_FAILPOINT("fp.test.scoped").Fire);
}

//===----------------------------------------------------------------------===//
// Spec parsing (the ALIC_FAILPOINTS grammar)
//===----------------------------------------------------------------------===//

TEST_F(FailPointTest, ParsesNamedErrnoModes) {
  struct {
    const char *Text;
    int WantErrno;
  } Cases[] = {{"mode:enospc", ENOSPC},
               {"mode:eio", EIO},
               {"mode:eintr", EINTR},
               {"mode:eagain", EAGAIN},
               {"mode:emfile", EMFILE},
               {"mode:errno:13", 13}};
  for (const auto &C : Cases) {
    FailSpec Spec;
    ASSERT_TRUE(parseFailSpec(C.Text, Spec)) << C.Text;
    EXPECT_EQ(Spec.Mode, FailMode::Error) << C.Text;
    EXPECT_EQ(Spec.Errno, C.WantErrno) << C.Text;
  }
}

TEST_F(FailPointTest, ParsesTornCrashAndWindows) {
  FailSpec Torn;
  ASSERT_TRUE(parseFailSpec("nth:5,mode:torn:12,count:2", Torn));
  EXPECT_EQ(Torn.Mode, FailMode::Torn);
  EXPECT_EQ(Torn.TornBytes, 12u);
  EXPECT_EQ(Torn.Nth, 5u);
  EXPECT_EQ(Torn.Count, 2u);

  FailSpec Crash;
  ASSERT_TRUE(parseFailSpec("mode:crash,exit:7", Crash));
  EXPECT_EQ(Crash.Mode, FailMode::Crash);
  EXPECT_EQ(Crash.ExitCode, 7);
}

TEST_F(FailPointTest, RejectsMalformedSpecs) {
  FailSpec Spec;
  EXPECT_FALSE(parseFailSpec("", Spec));
  EXPECT_FALSE(parseFailSpec("nth:3", Spec)); // mode is mandatory
  EXPECT_FALSE(parseFailSpec("mode:bogus", Spec));
  EXPECT_FALSE(parseFailSpec("mode:enospc,nth:x", Spec));
  EXPECT_FALSE(parseFailSpec("mode:enospc,unknown:1", Spec));
}

TEST_F(FailPointTest, ArmsFromEnvStyleString) {
  EXPECT_EQ(armFailPointsFromString(
                "fp.test.s1=mode:enospc;fp.test.s2=nth:2,mode:crash"),
            2);
  EXPECT_TRUE(ALIC_FAILPOINT("fp.test.s1").Fire);
  EXPECT_FALSE(ALIC_FAILPOINT("fp.test.s2").Fire); // nth:2, first hit passes
}

TEST_F(FailPointTest, MalformedStringArmsNothing) {
  EXPECT_EQ(armFailPointsFromString("fp.test.ok=mode:eio;fp.test.bad=nope"),
            -1);
  EXPECT_FALSE(ALIC_FAILPOINT("fp.test.ok").Fire);
}

// A number past its field's range must not wrap into an armed spec that
// never fires (nth saturated at 2^64 - 1) or fires the wrong errno.
TEST_F(FailPointTest, OverflowingNthArmsNothing) {
  FailSpec Spec;
  EXPECT_FALSE(parseFailSpec("nth:99999999999999999999,mode:eio", Spec));
  EXPECT_EQ(armFailPointsFromString(
                "fp.test.ok=mode:eio;"
                "fp.test.nth=nth:99999999999999999999,mode:eio"),
            -1);
  EXPECT_FALSE(ALIC_FAILPOINT("fp.test.ok").Fire);
  EXPECT_FALSE(ALIC_FAILPOINT("fp.test.nth").Fire);
  EXPECT_EQ(failPointHits("fp.test.nth"), 0u);
}

TEST_F(FailPointTest, OutOfRangeErrnoArmsNothing) {
  FailSpec Spec;
  EXPECT_FALSE(parseFailSpec("mode:errno:4294967298", Spec));
  EXPECT_FALSE(parseFailSpec("mode:errno:2147483648", Spec));
  ASSERT_TRUE(parseFailSpec("mode:errno:2147483647", Spec));
  EXPECT_EQ(Spec.Errno, 2147483647);
  EXPECT_EQ(armFailPointsFromString(
                "fp.test.ok=mode:eio;fp.test.errno=mode:errno:4294967298"),
            -1);
  EXPECT_FALSE(ALIC_FAILPOINT("fp.test.ok").Fire);
  EXPECT_FALSE(ALIC_FAILPOINT("fp.test.errno").Fire);
  EXPECT_EQ(failPointHits("fp.test.errno"), 0u);
}

//===----------------------------------------------------------------------===//
// writeFileDurable under injected faults
//===----------------------------------------------------------------------===//

namespace {

ByteWriter payloadWriter(const std::string &Text) {
  ByteWriter W;
  W.writeString(Text);
  return W;
}

} // namespace

TEST_F(FailPointTest, InjectedWriteErrorNeverPublishes) {
  std::string Path = tempPath("err.bin");
  std::remove(Path.c_str());
  ASSERT_TRUE(payloadWriter("old").writeFileDurable(Path).ok());
  std::string Old = slurp(Path);

  FailSpec Spec;
  Spec.Errno = ENOSPC;
  ScopedFailPoint Fp("atomicfile.write", Spec);
  Status St = payloadWriter("new-longer-content").writeFileDurable(Path);
  EXPECT_FALSE(St.ok());
  EXPECT_EQ(St.errnoValue(), ENOSPC);
  // The previous content is intact and the temp file is cleaned up.
  EXPECT_EQ(slurp(Path), Old);
  EXPECT_FALSE(exists(Path + ".tmp"));
}

TEST_F(FailPointTest, TornWriteNeverPublishes) {
  std::string Path = tempPath("torn.bin");
  std::remove(Path.c_str());
  ASSERT_TRUE(payloadWriter("old").writeFileDurable(Path).ok());
  std::string Old = slurp(Path);

  FailSpec Spec;
  Spec.Mode = FailMode::Torn;
  Spec.TornBytes = 3;
  Spec.Errno = ENOSPC;
  ScopedFailPoint Fp("atomicfile.write", Spec);
  EXPECT_FALSE(payloadWriter("replacement").writeFileDurable(Path).ok());
  EXPECT_EQ(slurp(Path), Old); // the torn bytes never reach Path
  EXPECT_FALSE(exists(Path + ".tmp"));
}

TEST_F(FailPointTest, FsyncAndRenameFaultsNeverPublish) {
  for (const char *Site : {"atomicfile.sync", "atomicfile.rename"}) {
    std::string Path = tempPath(std::string("site.") + Site);
    std::remove(Path.c_str());
    ASSERT_TRUE(payloadWriter("old").writeFileDurable(Path).ok());

    FailSpec Spec;
    Spec.Errno = EIO;
    ScopedFailPoint Fp(Site, Spec);
    EXPECT_FALSE(payloadWriter("new").writeFileDurable(Path).ok()) << Site;
    ByteReader R({});
    ASSERT_TRUE(ByteReader::fromFile(Path, R)) << Site;
    std::string Got;
    EXPECT_TRUE(R.readString(Got)) << Site;
    EXPECT_EQ(Got, "old") << Site;
    EXPECT_FALSE(exists(Path + ".tmp")) << Site;
  }
}

TEST_F(FailPointTest, RetryAfterFaultSucceeds) {
  std::string Path = tempPath("retry.bin");
  std::remove(Path.c_str());
  FailSpec Spec;
  Spec.Errno = ENOSPC;
  Spec.Count = 1; // fail exactly once, as a filling disk might
  armFailPoint("atomicfile.write", Spec);
  EXPECT_FALSE(payloadWriter("v").writeFileDurable(Path).ok());
  EXPECT_TRUE(payloadWriter("v").writeFileDurable(Path).ok());
  disarmFailPoint("atomicfile.write");
  ByteReader R({});
  ASSERT_TRUE(ByteReader::fromFile(Path, R));
  std::string Got;
  EXPECT_TRUE(R.readString(Got));
  EXPECT_EQ(Got, "v");
}

TEST_F(FailPointTest, CrashModeExitsAtTheSite) {
  FailSpec Spec;
  Spec.Mode = FailMode::Crash;
  Spec.ExitCode = 43;
  EXPECT_EXIT(
      {
        armFailPoint("fp.test.crash", Spec);
        (void)ALIC_FAILPOINT("fp.test.crash");
      },
      ::testing::ExitedWithCode(43), "failpoint 'fp.test.crash' crash");
}
