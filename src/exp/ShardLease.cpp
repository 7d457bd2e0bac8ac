//===- exp/ShardLease.cpp -------------------------------------*- C++ -*-===//

#include "exp/ShardLease.h"

#include "support/FailPoint.h"
#include "support/Format.h"
#include "support/Serialize.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

using namespace alic;

//===----------------------------------------------------------------------===//
// Range splitting
//===----------------------------------------------------------------------===//

std::vector<ShardRange> alic::splitRanges(size_t NumItems, size_t NumRanges) {
  if (!NumRanges)
    NumRanges = 1;
  // Always exactly NumRanges entries (trailing ones may be empty): static
  // --shard i/N needs range i to exist even when N exceeds the cell count.
  std::vector<ShardRange> Ranges;
  Ranges.reserve(NumRanges);
  size_t Base = NumItems / NumRanges, Extra = NumItems % NumRanges;
  size_t Begin = 0;
  for (size_t I = 0; I != NumRanges; ++I) {
    size_t Length = Base + (I < Extra ? 1 : 0);
    Ranges.push_back({I, Begin, Begin + Length});
    Begin += Length;
  }
  return Ranges;
}

std::vector<ShardRange> alic::splitRangesByCells(size_t NumItems,
                                                size_t TargetCells) {
  if (!NumItems)
    return {};
  if (!TargetCells)
    TargetCells = 1;
  return splitRanges(NumItems, (NumItems + TargetCells - 1) / TargetCells);
}

//===----------------------------------------------------------------------===//
// Lease files
//===----------------------------------------------------------------------===//

namespace {

/// Milliseconds of wall clock since \p St's mtime (0 when in the future —
/// another worker's clock may run ahead; a negative age is "fresh").
uint64_t mtimeAgeMs(const struct stat &St) {
  timespec Now{};
  ::clock_gettime(CLOCK_REALTIME, &Now);
  int64_t Age = (int64_t(Now.tv_sec) - int64_t(St.st_mtim.tv_sec)) * 1000 +
                (int64_t(Now.tv_nsec) - int64_t(St.st_mtim.tv_nsec)) / 1000000;
  return Age > 0 ? uint64_t(Age) : 0;
}

/// Owner tokens become part of steal-remnant filenames.
std::string sanitizeForFilename(const std::string &Token) {
  std::string Out = Token;
  for (char &C : Out)
    if (C == '/' || C == '\0' || C == '\n')
      C = '_';
  return Out;
}

/// True when \p Fd still is what \p Path names — i.e. nobody renamed or
/// unlinked our lease file out from under us.
bool ownsPath(int Fd, const std::string &Path) {
  struct stat ByPath, ByFd;
  return ::stat(Path.c_str(), &ByPath) == 0 && ::fstat(Fd, &ByFd) == 0 &&
         ByPath.st_dev == ByFd.st_dev && ByPath.st_ino == ByFd.st_ino;
}

} // namespace

RangeLease &RangeLease::operator=(RangeLease &&Other) noexcept {
  if (this != &Other) {
    release();
    Fd = Other.Fd;
    Path = std::move(Other.Path);
    Dev = Other.Dev;
    Ino = Other.Ino;
    Other.Fd = -1;
    Other.Path.clear();
  }
  return *this;
}

bool RangeLease::renew() {
  if (Fd < 0)
    return false;
  FailOutcome F = ALIC_FAILPOINT("lease.renew");
  bool Renewed = !F.Fire && ::futimens(Fd, nullptr) == 0;
  if (!Renewed || !ownsPath(Fd, Path)) {
    // Stolen (or unrenewable, which expires into stolen): the range is no
    // longer exclusively ours.  Never unlink — the path may be the
    // thief's fresh lease now.
    ::close(Fd);
    Fd = -1;
    Path.clear();
    return false;
  }
  return true;
}

void RangeLease::release() {
  if (Fd < 0)
    return;
  // Unlink only while still the owner.  The stat/unlink window can race a
  // steal and remove the thief's fresh lease — the thief's next renew
  // notices and abandons, costing duplicated work, never correctness
  // (cells are deterministic and merge dedupes identical lines).
  if (ownsPath(Fd, Path)) {
    ::unlink(Path.c_str());
    (void)syncParentDir(Path); // best-effort: crash-recovery latency only
  }
  ::close(Fd);
  Fd = -1;
  Path.clear();
}

void RangeLease::abandon() {
  if (Fd < 0)
    return;
  ::close(Fd);
  Fd = -1;
  Path.clear();
}

std::string ShardLease::leasePath(size_t RangeIndex) const {
  return Opts.Dir + "/range-" + std::to_string(RangeIndex) + ".lease";
}

Status ShardLease::init() const {
  std::error_code Ec;
  bool Created = std::filesystem::create_directories(Opts.Dir, Ec);
  if (Ec)
    return Status::failure("create lease dir " + Opts.Dir, Ec.value());
  if (Created)
    (void)syncParentDir(Opts.Dir); // best-effort, the ledger's discipline
  // Sweep steal remnants (rename-away files whose stealer crashed before
  // unlinking them) once they are unambiguously stale.  Pure litter — the
  // lease path itself is free the moment the rename lands.
  for (const auto &Entry : std::filesystem::directory_iterator(Opts.Dir, Ec)) {
    std::string Name = Entry.path().filename().string();
    if (Name.find(".steal-") == std::string::npos)
      continue;
    struct stat St;
    if (::stat(Entry.path().c_str(), &St) == 0 && mtimeAgeMs(St) > Opts.TtlMs)
      ::unlink(Entry.path().c_str());
  }
  return Status::success();
}

ShardLease::Claim ShardLease::tryClaim(size_t RangeIndex,
                                       RangeLease &Out) const {
  std::string Path = leasePath(RangeIndex);

  FailOutcome FA = ALIC_FAILPOINT("lease.acquire");
  int Fd = -1;
  if (FA.Fire)
    errno = FA.Errno;
  else
    Fd = ::open(Path.c_str(), O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);

  if (Fd < 0 && errno == EEXIST) {
    // Held by someone.  Alive, or expired and stealable?
    struct stat St;
    if (::stat(Path.c_str(), &St) != 0)
      return Claim::Held; // raced a release/steal; rescan later
    if (mtimeAgeMs(St) <= Opts.TtlMs)
      return Claim::Held;

    // Expired: steal by renaming the stale file *away*.  rename() of a
    // source another stealer already moved fails with ENOENT, so exactly
    // one concurrent stealer wins the handoff.
    FailOutcome FS = ALIC_FAILPOINT("lease.steal");
    if (FS.Fire) {
      errno = FS.Errno;
      return Claim::Error;
    }
    std::string Moved =
        Path + ".steal-" + sanitizeForFilename(Opts.OwnerToken);
    if (::rename(Path.c_str(), Moved.c_str()) != 0)
      return errno == ENOENT ? Claim::Held : Claim::Error;
    // A rival may have stolen the stale file and claimed afresh between
    // our stat() and rename(): then we moved *its* lease.  The mtime
    // tells them apart even when the file system hands the freed stale
    // inode's number to the rival's file (ext4 does so at once): a fresh
    // claim's mtime is its claim time, never the expired one.  Put a
    // rival's lease back with link(), which fails with EEXIST rather than
    // clobber a newer claim, and lose.  One window stays open: a
    // first-time O_EXCL claim that lands between the rename and the link
    // keeps the path, and the rival we moved learns of the loss at its
    // next renew().
    struct stat MovedSt;
    if (::lstat(Moved.c_str(), &MovedSt) != 0)
      return Claim::Error;
    if (MovedSt.st_dev != St.st_dev || MovedSt.st_ino != St.st_ino ||
        MovedSt.st_mtim.tv_sec != St.st_mtim.tv_sec ||
        MovedSt.st_mtim.tv_nsec != St.st_mtim.tv_nsec) {
      (void)::link(Moved.c_str(), Path.c_str());
      ::unlink(Moved.c_str());
      return Claim::Held;
    }
    ::unlink(Moved.c_str());
    (void)syncParentDir(Path); // revocation durable before re-claiming
    // The path is free now — but a third worker may O_EXCL it first.
    Fd = ::open(Path.c_str(), O_CREAT | O_EXCL | O_WRONLY | O_CLOEXEC, 0644);
    if (Fd < 0)
      return errno == EEXIST ? Claim::Held : Claim::Error;
  } else if (Fd < 0) {
    return Claim::Error;
  }

  // Stamp ownership and make the claim durable: token + file fsync +
  // directory fsync, the writeFileDurable discipline.
  std::string Token = Opts.OwnerToken + "\n";
  size_t Done = 0;
  while (Done < Token.size()) {
    ssize_t N = ::write(Fd, Token.data() + Done, Token.size() - Done);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Done += size_t(N);
  }
  if (Done != Token.size() || ::fsync(Fd) != 0) {
    ::unlink(Path.c_str());
    ::close(Fd);
    return Claim::Error;
  }
  (void)syncParentDir(Path); // best-effort: crash-recovery latency only

  struct stat St{};
  ::fstat(Fd, &St);
  Out.release();
  Out.Fd = Fd;
  Out.Path = Path;
  Out.Dev = uint64_t(St.st_dev);
  Out.Ino = uint64_t(St.st_ino);
  return Claim::Acquired;
}

//===----------------------------------------------------------------------===//
// Heartbeat
//===----------------------------------------------------------------------===//

LeaseHeartbeat::LeaseHeartbeat(RangeLease &Lease, const LeaseOptions &Opts)
    : Lease(Lease) {
  if (!Lease.held()) {
    Stopped = true;
    return;
  }
  uint64_t CadenceMs = Opts.heartbeatMs();
  Thread = std::thread([this, CadenceMs] {
    std::unique_lock<std::mutex> Lock(Mutex);
    while (!Stopped) {
      // Monotonic-clock cadence (wait_for uses steady_clock): wall-clock
      // jumps never starve or flood renewals.
      if (Cv.wait_for(Lock, std::chrono::milliseconds(CadenceMs),
                      [this] { return Stopped; }))
        return;
      if (!this->Lease.renew()) {
        Lost.store(true, std::memory_order_release);
        return;
      }
    }
  });
}

void LeaseHeartbeat::stop() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Stopped && !Thread.joinable())
      return;
    Stopped = true;
  }
  Cv.notify_all();
  if (Thread.joinable())
    Thread.join();
}

//===----------------------------------------------------------------------===//
// Owner tokens
//===----------------------------------------------------------------------===//

std::string alic::makeLeaseOwnerToken(const std::string &Hint) {
  timespec Ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &Ts);
  uint64_t Nonce = uint64_t(Ts.tv_sec) * 1000000000ull + uint64_t(Ts.tv_nsec);
  return formatString("%s-%d-%llx", Hint.empty() ? "worker" : Hint.c_str(),
                      int(::getpid()), (unsigned long long)Nonce);
}
