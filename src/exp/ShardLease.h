//===- exp/ShardLease.h - Range leases for multi-process campaigns -------===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordination substrate that lets N independent alic_campaign
/// processes (same box or a shared filesystem) cooperatively complete one
/// spec: the canonical cell list is split into contiguous ranges, and a
/// worker claims a range by opening `<state-dir>/leases/range-<I>.lease`
/// and taking `flock(LOCK_EX | LOCK_NB)` on its own descriptor.  The
/// worker releases the range by closing the descriptor, and the kernel
/// releases it the moment the worker dies, however it dies: nothing
/// expires, is renewed or is stolen.  Lease files are created on first
/// use and never unlinked: unlink plus re-create would let two workers
/// lock two different inodes at one path.
///
/// `flock` locks belong to the open file description, so two descriptors
/// in one process exclude each other (tests run lease workers as
/// threads); POSIX `fcntl` record locks would not.  A lock is not durable
/// state: after a crash or power loss nobody holds it, which is the
/// correct state, so claims write and fsync nothing.
///
/// Safety does NOT rest on the leases: campaign cells are pure functions
/// of their keys and the ledger loader collapses byte-identical duplicate
/// lines across the worker ledgers, so the worst outcome of a failure of
/// exclusion is duplicated work, never a wrong result.  See
/// ARCHITECTURE.md's Scale-out section.
///
/// Fault-injection site: lease.acquire.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_EXP_SHARDLEASE_H
#define ALIC_EXP_SHARDLEASE_H

#include "support/Error.h"

#include <cstddef>
#include <string>
#include <vector>

namespace alic {

/// One contiguous slice [Begin, End) of the canonical cell list.
struct ShardRange {
  size_t Index = 0; ///< range number (names the lease file)
  size_t Begin = 0; ///< first cell index, inclusive
  size_t End = 0;   ///< one past the last cell index

  size_t size() const { return End - Begin; }
};

/// Splits \p NumItems into ceil(NumItems / TargetCells) contiguous
/// near-equal ranges in order, numbered from 0: the first
/// NumItems % NumRanges ranges get one extra item, and none holds more
/// than \p TargetCells (floor 1).  Zero items give no ranges.
/// Deterministic: equal inputs give equal splits on every process, which
/// is what lets workers agree on range boundaries (and lease file names)
/// without talking.
std::vector<ShardRange> splitRangesByCells(size_t NumItems,
                                           size_t TargetCells);

/// A held lease on one range: an open descriptor carrying the range's
/// exclusive flock.  Releases on destruction.
class RangeLease {
public:
  RangeLease() = default;
  ~RangeLease() { release(); }
  RangeLease(const RangeLease &) = delete;
  RangeLease &operator=(const RangeLease &) = delete;

  /// True while this lease holds its range.
  bool held() const { return Fd >= 0; }

  /// Closes the descriptor, which drops the lock.  The lease file stays.
  /// Idempotent.
  void release();

private:
  friend class ShardLease;

  int Fd = -1;
};

/// The lease-directory protocol: claim a range by locking its file.
/// Stateless between calls (all state lives in the kernel's lock table),
/// so any number of ShardLease instances — across processes or threads —
/// can point at the same directory.
class ShardLease {
public:
  /// Leases live in \p Dir, the `<state-dir>/leases` directory.
  explicit ShardLease(std::string Dir) : Dir(std::move(Dir)) {}

  /// Creates the lease directory if missing.
  Status init() const;

  /// What one claim attempt concluded.
  enum class Claim {
    Acquired, ///< \p Out holds the lease; the range is ours
    Held,     ///< another descriptor holds the lock (EWOULDBLOCK)
    /// Any other open/flock failure (EACCES, EMFILE, ENOSPC, ENOLCK,
    /// EIO, ...).  Nobody holds the lock, so waiting for it would never
    /// end: the campaign gives the range up for this worker and
    /// quarantines its missing cells, which a re-run retries.
    Error
  };

  /// Tries to claim range \p RangeIndex: opens its lease file (creating
  /// it on first use) and takes a non-blocking exclusive flock.  Never
  /// blocks.  On Acquired, \p Out releases what it held before and holds
  /// the new lease; otherwise \p Out is unchanged.  Fault-injection site:
  /// lease.acquire, in place of the open (mode:crash for the chaos kill
  /// loop).
  Claim tryClaim(size_t RangeIndex, RangeLease &Out) const;

  /// The lease file path for range \p RangeIndex.
  std::string leasePath(size_t RangeIndex) const;

private:
  std::string Dir;
};

} // namespace alic

#endif // ALIC_EXP_SHARDLEASE_H
