//===- support/Serialize.h - Binary blob reader/writer --------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny explicit-layout binary serializer used for on-disk caches (the
/// campaign orchestrator memoizes buildDataset blobs with it).  Every
/// scalar is written little-endian byte by byte and doubles travel as raw
/// IEEE-754 bits, so a round trip reproduces values bit-for-bit on any
/// host this project targets.  Readers are fully bounds-checked: a
/// truncated or corrupted blob flips a sticky failure flag instead of
/// reading out of bounds, and callers discard the cache entry.  Binary
/// formats seal their payload with writeChecksum and open it with
/// verifyChecksum, so a flipped byte that still parses is rejected too.
///
/// The durable-file primitives live here too: writeFileDurable replaces a
/// whole file, and the append-log functions grow a line log one fsynced
/// record at a time (the campaign ledger, every serve session log).
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SUPPORT_SERIALIZE_H
#define ALIC_SUPPORT_SERIALIZE_H

#include "support/Error.h"
#include "support/FlatRows.h"

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace alic {

/// fsync of the directory containing \p Path, making a completed create,
/// rename, or unlink inside it durable — the same discipline
/// ByteWriter::writeFileDurable applies after its rename.  Exposed so
/// other creates reuse it instead of re-deriving the fsync rules:
/// openAppendLog's first create of a log, and the campaign state dir's
/// first create (exp/Campaign).  Best-effort on filesystems that reject
/// directory fsync (errno EINVAL is ignored, the POSIX escape hatch).
/// Fault-injection site: atomicfile.dirsync.
Status syncParentDir(const std::string &Path);

/// Opens the line log \p Path for appending, creating it if needed.  On
/// first create the parent directory is fsync'd (a synced append is
/// worthless if the file's directory entry vanishes with a power loss),
/// and a torn trailing line a crash left is sealed behind a newline so
/// the next append cannot glue onto it.  nullptr (errno set) on failure.
std::FILE *openAppendLog(const std::string &Path);

/// Appends \p Line and a newline to the log \p Out (\p Path in errors),
/// flushed and fsync'd, in up to four attempts on a jittered 1-4 ms
/// backoff (support/Backoff); every retry seals first.  \p NeedSeal
/// carries torn-remnant state across calls: true on entry seals the
/// first attempt too, and it leaves true when the last attempt failed.
/// Fault-injection sites: \p AppendSite (error / torn / crash before the
/// write) and \p SyncSite (error / crash at the fsync — data flushed,
/// durability unknown, exactly the window a power loss hits).
Status appendLogLine(std::FILE *Out, const std::string &Path,
                     const std::string &Line, bool &NeedSeal,
                     const char *AppendSite, const char *SyncSite);

/// What a log scan skipped.
struct LogScanStats {
  size_t TornTails = 0; ///< unterminated trailing lines (crash remnants)
  size_t Garbage = 0;   ///< complete lines the caller rejected
};

/// The one line-log scanner: calls \p OnLine(Line) for every complete,
/// non-empty line of \p Path in order (without its newline), skipping an
/// unterminated tail and counting the lines OnLine rejects (returns false
/// for) as garbage.  Fails only when the file cannot be read.
Status scanLogLines(const std::string &Path, LogScanStats &Stats,
                    const std::function<bool(const std::string &)> &OnLine);

/// Appends scalars and vectors to a growing byte buffer.
class ByteWriter {
public:
  void writeU8(uint8_t Value) { Buffer.push_back(Value); }
  void writeU16(uint16_t Value);
  void writeU32(uint32_t Value);
  void writeU64(uint64_t Value);
  /// Raw IEEE-754 bits; round-trips exactly.
  void writeDouble(double Value);
  /// u64 length followed by the bytes.
  void writeString(const std::string &Value);
  /// Raw bytes, verbatim, no length prefix — for text artifacts (e.g.
  /// the merged campaign ledger) that want writeFileDurable's atomic
  /// durable publish without the binary framing.
  void writeRaw(const std::string &Value) {
    Buffer.insert(Buffer.end(), Value.begin(), Value.end());
  }
  void writeU16s(const std::vector<uint16_t> &Values);
  void writeDoubles(RowRef Values);

  /// Appends a 64-bit FNV-1a checksum of every byte written so far.
  /// Written last; ByteReader::verifyChecksum checks and strips it.
  void writeChecksum();

  const std::vector<uint8_t> &bytes() const { return Buffer; }
  size_t size() const { return Buffer.size(); }

  /// Writes the buffer to \p Path atomically *and durably*: the bytes go
  /// to a temporary file, the temporary is fsync'd **before** the rename
  /// (so the rename can never publish a name whose data is still only in
  /// the page cache — a crash after rename-without-sync leaves a
  /// truncated-but-named blob), and the containing directory is fsync'd
  /// after (so the rename itself survives a crash).  Concurrent readers
  /// never observe a half-written blob.  On any failure the temporary is
  /// removed and \p Path keeps its previous content (or absence); the
  /// returned Status carries the failing step and errno.
  ///
  /// Fault-injection sites: atomicfile.write (torn/error on the data
  /// write), atomicfile.sync (temp-file fsync), atomicfile.rename, and
  /// atomicfile.dirsync — all four accept mode:crash for the
  /// kill-at-every-sync-point chaos tests.
  Status writeFileDurable(const std::string &Path) const;

private:
  std::vector<uint8_t> Buffer;
};

/// Consumes a byte buffer written by ByteWriter.  All reads are
/// bounds-checked; the first out-of-range read sets the sticky failure
/// flag, zeroes the output, and every later read fails too, so callers
/// can validate once at the end with ok().
class ByteReader {
public:
  explicit ByteReader(std::vector<uint8_t> Bytes) : Buffer(std::move(Bytes)) {}

  /// Loads \p Path into a reader; false when the file cannot be read.
  static bool fromFile(const std::string &Path, ByteReader &Out);

  /// Checks the trailing checksum ByteWriter::writeChecksum appended and
  /// drops it from the buffer, so atEnd() then means the payload was
  /// consumed exactly.  Call before any read.  On a short buffer or a
  /// mismatch, returns false and fails the reader.
  bool verifyChecksum();

  bool readU8(uint8_t &Value);
  bool readU16(uint16_t &Value);
  bool readU32(uint32_t &Value);
  bool readU64(uint64_t &Value);
  bool readDouble(double &Value);
  bool readString(std::string &Value);
  bool readU16s(std::vector<uint16_t> &Values);
  bool readDoubles(std::vector<double> &Values);

  /// True while every read so far stayed in bounds.
  bool ok() const { return !Failed; }

  /// True when the cursor consumed the whole buffer.
  bool atEnd() const { return Pos == Buffer.size(); }

  /// Bytes left to read.  Callers deserializing containers-of-containers
  /// must bound their outer element counts against this before resizing,
  /// so a corrupt length prefix cannot trigger a giant allocation.
  size_t remaining() const { return Buffer.size() - Pos; }

private:
  bool take(size_t Count, const uint8_t *&Out);

  std::vector<uint8_t> Buffer;
  size_t Pos = 0;
  bool Failed = false;
};

} // namespace alic

#endif // ALIC_SUPPORT_SERIALIZE_H
