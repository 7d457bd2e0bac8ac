//===- exp/ShardLease.cpp -------------------------------------*- C++ -*-===//

#include "exp/ShardLease.h"

#include "support/FailPoint.h"

#include <cerrno>
#include <filesystem>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

using namespace alic;

//===----------------------------------------------------------------------===//
// Range splitting
//===----------------------------------------------------------------------===//

std::vector<ShardRange> alic::splitRangesByCells(size_t NumItems,
                                                size_t TargetCells) {
  if (!TargetCells)
    TargetCells = 1;
  size_t NumRanges = (NumItems + TargetCells - 1) / TargetCells;
  std::vector<ShardRange> Ranges;
  Ranges.reserve(NumRanges);
  size_t Begin = 0;
  for (size_t I = 0; I != NumRanges; ++I) {
    size_t Length = NumItems / NumRanges + (I < NumItems % NumRanges ? 1 : 0);
    Ranges.push_back({I, Begin, Begin + Length});
    Begin += Length;
  }
  return Ranges;
}

//===----------------------------------------------------------------------===//
// Lease files
//===----------------------------------------------------------------------===//

void RangeLease::release() {
  if (Fd < 0)
    return;
  ::close(Fd);
  Fd = -1;
}

std::string ShardLease::leasePath(size_t RangeIndex) const {
  return Dir + "/range-" + std::to_string(RangeIndex) + ".lease";
}

Status ShardLease::init() const {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  if (Ec)
    return Status::failure("create lease dir " + Dir, Ec.value());
  return Status::success();
}

ShardLease::Claim ShardLease::tryClaim(size_t RangeIndex,
                                       RangeLease &Out) const {
  FailOutcome F = ALIC_FAILPOINT("lease.acquire");
  if (F.Fire)
    return Claim::Error;
  // O_RDWR, not O_RDONLY: NFS emulates flock with a POSIX write lock,
  // which needs a descriptor open for writing.
  int Fd = ::open(leasePath(RangeIndex).c_str(), O_RDWR | O_CREAT | O_CLOEXEC,
                  0644);
  if (Fd < 0)
    return Claim::Error;
  if (::flock(Fd, LOCK_EX | LOCK_NB) != 0) {
    Claim Verdict = errno == EWOULDBLOCK ? Claim::Held : Claim::Error;
    ::close(Fd);
    return Verdict;
  }
  Out.release();
  Out.Fd = Fd;
  return Claim::Acquired;
}
