//===- support/Error.h - Fatal errors and assertions ----------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-terminating error reporting.  The library does not use C++
/// exceptions; unrecoverable conditions abort with a message, recoverable
/// conditions are expressed through std::optional or status returns.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SUPPORT_ERROR_H
#define ALIC_SUPPORT_ERROR_H

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>

namespace alic {

/// Lightweight success/failure result for the degradable I/O paths (log
/// appends, whole-file writes, dataset-cache blobs).  The library does not
/// use exceptions, and a storage failure on these paths is an ordinary
/// input — callers retry, quarantine, or refuse the request instead of
/// aborting.  A Status carries the failing call's errno (0 when not a
/// syscall failure) and a human-readable message.
class [[nodiscard]] Status {
public:
  /// Default-constructed Status is success.
  Status() = default;

  /// The success value.
  static Status success() { return Status(); }

  /// A failure with \p Message and optional \p Errno.
  static Status failure(std::string Message, int Errno = 0) {
    Status S;
    S.Success = false;
    S.Err = Errno;
    S.Msg = std::move(Message);
    return S;
  }

  /// True on success.
  bool ok() const { return Success; }

  /// The captured errno, or 0 (meaningful only when !ok()).
  int errnoValue() const { return Err; }

  /// The failure message; empty on success.
  const std::string &message() const { return Msg; }

private:
  bool Success = true;
  int Err = 0;
  std::string Msg;
};

/// The delay before retry \p Attempt (0-based) of a failed operation: the
/// exponential ladder min(BaseMs << Attempt, CapMs).
inline uint64_t backoffDelayMs(uint64_t BaseMs, uint64_t CapMs,
                               uint64_t Attempt) {
  uint64_t Delay = BaseMs;
  for (uint64_t I = 0; I != Attempt && Delay < CapMs; ++I)
    Delay <<= 1;
  return Delay < CapMs ? Delay : CapMs;
}

/// Prints \p Msg (printf-style) to stderr and aborts.  Used for conditions
/// that indicate a programming error or an impossible configuration, never
/// for conditions triggered by ordinary inputs.
[[noreturn]] void fatalError(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Marks a point in the code that is statically known to be unreachable.
[[noreturn]] void unreachableInternal(const char *Msg, const char *File,
                                      unsigned Line);

} // namespace alic

/// Marks unreachable code with a diagnostic message, mirroring
/// llvm_unreachable.
#define alic_unreachable(msg)                                                  \
  ::alic::unreachableInternal(msg, __FILE__, __LINE__)

#endif // ALIC_SUPPORT_ERROR_H
