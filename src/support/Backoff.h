//===- support/Backoff.h - Jittered exponential backoff -------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One deterministic backoff schedule for every retry loop in the project
/// (ledger appends, accept() resource exhaustion).  The delay for attempt
/// A is a pure function of (Seed, A): the exponential envelope
/// min(Base << A, Cap) with equal jitter drawn from a counter-based Rng
/// stream — no shared state, no wall clock, so two processes with the
/// same seed replay the same schedule and tests can pin it exactly.
/// Jitter decorrelates competing retriers (distinct seeds) so they do not
/// stampede in lockstep; a JitterFraction of 0 degenerates to the plain
/// exponential ladder.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SUPPORT_BACKOFF_H
#define ALIC_SUPPORT_BACKOFF_H

#include "support/Rng.h"

#include <cstdint>

namespace alic {

/// Deterministic jittered exponential backoff schedule.
class Backoff {
public:
  /// \p BaseMs is attempt 0's envelope, doubling each attempt up to
  /// \p CapMs.  \p JitterFraction in [0,1] is the slice of the envelope
  /// that jitters: attempt A sleeps in [e*(1-f), e] for
  /// e = min(BaseMs << A, CapMs).  Equal seeds give equal schedules.
  Backoff(uint64_t Seed, uint64_t BaseMs, uint64_t CapMs,
          double JitterFraction = 0.5)
      : Seed(Seed), BaseMs(BaseMs), CapMs(CapMs),
        JitterFraction(JitterFraction < 0.0   ? 0.0
                       : JitterFraction > 1.0 ? 1.0
                                              : JitterFraction) {}

  /// The delay before retry \p Attempt (0-based).  Pure: equal
  /// (Seed, Attempt) always returns the same value, independent of call
  /// order — each attempt hashes its own counter-based Rng stream.
  uint64_t delayMs(uint64_t Attempt) const {
    uint64_t Envelope = BaseMs;
    for (uint64_t I = 0; I != Attempt && Envelope < CapMs; ++I)
      Envelope <<= 1;
    if (Envelope > CapMs)
      Envelope = CapMs;
    if (JitterFraction <= 0.0 || Envelope == 0)
      return Envelope;
    Rng Stream(hashCombine({Seed, Attempt, 0xbac0ffull}));
    double Span = double(Envelope) * JitterFraction;
    return Envelope - uint64_t(Span) + uint64_t(Stream.nextDouble() * Span);
  }

  uint64_t baseMs() const { return BaseMs; }
  uint64_t capMs() const { return CapMs; }

private:
  uint64_t Seed;
  uint64_t BaseMs;
  uint64_t CapMs;
  double JitterFraction;
};

} // namespace alic

#endif // ALIC_SUPPORT_BACKOFF_H
