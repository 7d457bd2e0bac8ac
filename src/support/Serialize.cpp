//===- support/Serialize.cpp ----------------------------------*- C++ -*-===//

#include "support/Serialize.h"

#include "support/FailPoint.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

using namespace alic;

namespace {

/// 64-bit FNV-1a over [Data, Data+Size): every single-byte change moves
/// the result, since each step is a bijection of the running state.
uint64_t fnv1a(const uint8_t *Data, size_t Size) {
  uint64_t Hash = 0xcbf29ce484222325ull;
  for (size_t I = 0; I != Size; ++I) {
    Hash ^= Data[I];
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

} // namespace

void ByteWriter::writeU16(uint16_t Value) {
  Buffer.push_back(uint8_t(Value & 0xff));
  Buffer.push_back(uint8_t(Value >> 8));
}

void ByteWriter::writeU32(uint32_t Value) {
  for (int Shift = 0; Shift != 32; Shift += 8)
    Buffer.push_back(uint8_t((Value >> Shift) & 0xff));
}

void ByteWriter::writeU64(uint64_t Value) {
  for (int Shift = 0; Shift != 64; Shift += 8)
    Buffer.push_back(uint8_t((Value >> Shift) & 0xff));
}

void ByteWriter::writeDouble(double Value) {
  uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(Value), "IEEE-754 double expected");
  std::memcpy(&Bits, &Value, sizeof(Bits));
  writeU64(Bits);
}

void ByteWriter::writeString(const std::string &Value) {
  writeU64(Value.size());
  Buffer.insert(Buffer.end(), Value.begin(), Value.end());
}

void ByteWriter::writeU16s(const std::vector<uint16_t> &Values) {
  writeU64(Values.size());
  for (uint16_t V : Values)
    writeU16(V);
}

void ByteWriter::writeDoubles(RowRef Values) {
  writeU64(Values.size());
  for (double V : Values)
    writeDouble(V);
}

void ByteWriter::writeChecksum() {
  writeU64(fnv1a(Buffer.data(), Buffer.size()));
}

namespace {

/// Writes all of [Data, Data+Size) to \p Fd, honoring the
/// `atomicfile.write` failpoint (torn mode lets the first TornBytes
/// through, then fails — what ENOSPC mid-write looks like).  Retries
/// EINTR-interrupted writes.
Status writeAllTo(int Fd, const uint8_t *Data, size_t Size,
                  const std::string &TmpPath) {
  FailOutcome F = ALIC_FAILPOINT("atomicfile.write");
  if (F.Fire) {
    if (F.Mode == FailMode::Torn && F.TornBytes > 0 && Size > 0) {
      size_t Partial = F.TornBytes < Size ? F.TornBytes : Size;
      size_t Done = 0;
      while (Done < Partial) {
        ssize_t N = ::write(Fd, Data + Done, Partial - Done);
        if (N <= 0)
          break;
        Done += size_t(N);
      }
    }
    return Status::failure("write " + TmpPath + " (injected)", F.Errno);
  }
  size_t Done = 0;
  while (Done < Size) {
    ssize_t N = ::write(Fd, Data + Done, Size - Done);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return Status::failure("write " + TmpPath, errno);
    Done += size_t(N);
  }
  return Status::success();
}

} // namespace

// Doc comment in Serialize.h: the shared directory-fsync discipline.
Status alic::syncParentDir(const std::string &Path) {
  FailOutcome F = ALIC_FAILPOINT("atomicfile.dirsync");
  if (F.Fire)
    return Status::failure("fsync dir of " + Path + " (injected)", F.Errno);
  size_t Slash = Path.find_last_of('/');
  std::string Dir = Slash == std::string::npos ? "." : Path.substr(0, Slash);
  if (Dir.empty())
    Dir = "/";
  int Fd = ::open(Dir.c_str(), O_RDONLY);
  if (Fd < 0)
    return Status::failure("open dir " + Dir, errno);
  int Rc = ::fsync(Fd);
  int SavedErrno = errno;
  ::close(Fd);
  if (Rc != 0 && SavedErrno != EINVAL)
    return Status::failure("fsync dir " + Dir, SavedErrno);
  return Status::success();
}

Status ByteWriter::writeFileDurable(const std::string &Path) const {
  std::string TmpPath = Path + ".tmp";
  int Fd = ::open(TmpPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return Status::failure("open " + TmpPath, errno);

  Status St = writeAllTo(Fd, Buffer.data(), Buffer.size(), TmpPath);

  if (St.ok()) {
    FailOutcome F = ALIC_FAILPOINT("atomicfile.sync");
    if (F.Fire)
      St = Status::failure("fsync " + TmpPath + " (injected)", F.Errno);
    else if (::fsync(Fd) != 0)
      St = Status::failure("fsync " + TmpPath, errno);
  }
  if (::close(Fd) != 0 && St.ok())
    St = Status::failure("close " + TmpPath, errno);
  if (!St.ok()) {
    ::unlink(TmpPath.c_str());
    return St;
  }

  FailOutcome F = ALIC_FAILPOINT("atomicfile.rename");
  if (F.Fire) {
    ::unlink(TmpPath.c_str());
    return Status::failure("rename to " + Path + " (injected)", F.Errno);
  }
  if (std::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    Status Failed = Status::failure("rename to " + Path, errno);
    ::unlink(TmpPath.c_str());
    return Failed;
  }
  return syncParentDir(Path);
}

namespace {

/// Reads all of \p Path into \p Out; false (errno set) when it cannot.
bool readWholeFile(const std::string &Path, std::string &Out) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return false;
  char Chunk[1 << 16];
  size_t Got;
  while ((Got = std::fread(Chunk, 1, sizeof(Chunk), File)) > 0)
    Out.append(Chunk, Got);
  bool Ok = std::ferror(File) == 0;
  std::fclose(File);
  if (!Ok)
    errno = EIO;
  return Ok;
}

/// Append attempts per record: a 1 ms backoff doubling to 4 ms rides out
/// a transient EINTR/EIO blip, yet a truly full disk quarantines a
/// 275-cell campaign in about a second.
constexpr int AppendLogAttempts = 4;

/// One append attempt: write \p Line (ending in its newline), flush,
/// fsync.  \p Seal prefixes a newline — a previous attempt may have torn
/// mid-line, and gluing this record onto the remnant would lose both.
Status tryAppendLine(std::FILE *Out, const std::string &Path,
                     const std::string &Line, bool Seal,
                     const char *AppendSite, const char *SyncSite) {
  std::clearerr(Out);
  FailOutcome F = ALIC_FAILPOINT(AppendSite);
  if (F.Fire) {
    if (F.Mode == FailMode::Torn && F.TornBytes > 0) {
      std::fwrite(Line.data(), 1, std::min(F.TornBytes, Line.size()), Out);
      std::fflush(Out);
    }
    return Status::failure("append to " + Path + " (injected)", F.Errno);
  }
  if (Seal && std::fputc('\n', Out) == EOF)
    return Status::failure("append to " + Path, errno);
  if (std::fwrite(Line.data(), 1, Line.size(), Out) != Line.size() ||
      std::fflush(Out) != 0)
    return Status::failure("append to " + Path, errno);
  FailOutcome FS = ALIC_FAILPOINT(SyncSite);
  if (FS.Fire)
    return Status::failure("fsync " + Path + " (injected)", FS.Errno);
  if (::fsync(fileno(Out)) != 0)
    return Status::failure("fsync " + Path, errno);
  return Status::success();
}

} // namespace

// Doc comments in Serialize.h: the append-log idiom.
std::FILE *alic::openAppendLog(const std::string &Path) {
  std::error_code Ec; // an unsearchable path fails the fopen below
  bool Existed = std::filesystem::exists(Path, Ec);
  std::FILE *Out = std::fopen(Path.c_str(), "a+b"); // writes land at the end
  if (!Out)
    return nullptr;
  if (!Existed)
    (void)syncParentDir(Path); // best-effort
  bool Torn = std::fseek(Out, -1, SEEK_END) == 0 && std::fgetc(Out) != '\n';
  std::fseek(Out, 0, SEEK_END); // the switch from reading to writing
  if (Torn)
    std::fputc('\n', Out);
  return Out;
}

Status alic::appendLogLine(std::FILE *Out, const std::string &Path,
                           const std::string &Line, bool &NeedSeal,
                           const char *AppendSite, const char *SyncSite) {
  const std::string Record = Line + '\n';
  Status St;
  for (int Attempt = 0; Attempt != AppendLogAttempts; ++Attempt) {
    if (Attempt)
      std::this_thread::sleep_for(std::chrono::milliseconds(backoffDelayMs(
          /*BaseMs=*/1, /*CapMs=*/4, uint64_t(Attempt - 1))));
    St = tryAppendLine(Out, Path, Record, NeedSeal || Attempt != 0,
                       AppendSite, SyncSite);
    if (St.ok()) {
      NeedSeal = false;
      return St;
    }
  }
  NeedSeal = true;
  return St;
}

Status alic::scanLogLines(
    const std::string &Path, LogScanStats &Stats,
    const std::function<bool(const std::string &)> &OnLine) {
  std::string Content;
  if (!readWholeFile(Path, Content))
    return Status::failure("read " + Path, errno);
  size_t Pos = 0;
  while (Pos < Content.size()) {
    size_t Eol = Content.find('\n', Pos);
    if (Eol == std::string::npos) {
      ++Stats.TornTails;
      break;
    }
    std::string Line = Content.substr(Pos, Eol - Pos);
    Pos = Eol + 1;
    if (!Line.empty() && !OnLine(Line))
      ++Stats.Garbage;
  }
  return Status::success();
}

bool ByteReader::fromFile(const std::string &Path, ByteReader &Out) {
  std::string Bytes;
  if (!readWholeFile(Path, Bytes))
    return false;
  Out = ByteReader(std::vector<uint8_t>(Bytes.begin(), Bytes.end()));
  return true;
}

bool ByteReader::verifyChecksum() {
  if (Failed || Pos != 0 || Buffer.size() < 8) {
    Failed = true;
    return false;
  }
  size_t Payload = Buffer.size() - 8;
  uint64_t Stored = 0;
  for (int Byte = 7; Byte >= 0; --Byte)
    Stored = (Stored << 8) | Buffer[Payload + size_t(Byte)];
  if (Stored != fnv1a(Buffer.data(), Payload)) {
    Failed = true;
    return false;
  }
  Buffer.resize(Payload);
  return true;
}

bool ByteReader::take(size_t Count, const uint8_t *&Out) {
  if (Failed || Count > Buffer.size() - Pos || Pos > Buffer.size()) {
    Failed = true;
    return false;
  }
  Out = Buffer.data() + Pos;
  Pos += Count;
  return true;
}

bool ByteReader::readU8(uint8_t &Value) {
  Value = 0;
  const uint8_t *Bytes;
  if (!take(1, Bytes))
    return false;
  Value = Bytes[0];
  return true;
}

bool ByteReader::readU16(uint16_t &Value) {
  Value = 0;
  const uint8_t *Bytes;
  if (!take(2, Bytes))
    return false;
  Value = uint16_t(Bytes[0] | (uint16_t(Bytes[1]) << 8));
  return true;
}

bool ByteReader::readU32(uint32_t &Value) {
  Value = 0;
  const uint8_t *Bytes;
  if (!take(4, Bytes))
    return false;
  for (int I = 0; I != 4; ++I)
    Value |= uint32_t(Bytes[I]) << (8 * I);
  return true;
}

bool ByteReader::readU64(uint64_t &Value) {
  Value = 0;
  const uint8_t *Bytes;
  if (!take(8, Bytes))
    return false;
  for (int I = 0; I != 8; ++I)
    Value |= uint64_t(Bytes[I]) << (8 * I);
  return true;
}

bool ByteReader::readDouble(double &Value) {
  Value = 0.0;
  uint64_t Bits;
  if (!readU64(Bits))
    return false;
  std::memcpy(&Value, &Bits, sizeof(Value));
  return true;
}

bool ByteReader::readString(std::string &Value) {
  Value.clear();
  uint64_t Count;
  if (!readU64(Count))
    return false;
  const uint8_t *Bytes;
  if (!take(size_t(Count), Bytes))
    return false;
  Value.assign(Bytes, Bytes + Count);
  return true;
}

bool ByteReader::readU16s(std::vector<uint16_t> &Values) {
  Values.clear();
  uint64_t Count;
  if (!readU64(Count) || Count > Buffer.size()) { // each element needs >= 2B
    Failed = true;
    return false;
  }
  Values.resize(size_t(Count));
  for (uint16_t &V : Values)
    if (!readU16(V))
      return false;
  return true;
}

bool ByteReader::readDoubles(std::vector<double> &Values) {
  Values.clear();
  uint64_t Count;
  if (!readU64(Count) || Count > Buffer.size()) { // each element needs 8B
    Failed = true;
    return false;
  }
  Values.resize(size_t(Count));
  for (double &V : Values)
    if (!readDouble(V))
      return false;
  return true;
}
