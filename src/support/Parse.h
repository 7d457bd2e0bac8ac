//===- support/Parse.h - Total parsing of flags and counts ----*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The text parsers both command-line tools share, plus the count parser
/// behind the campaign's plan tokens.  Every parser is total: it either
/// accepts the whole input or rejects it, never truncates, wraps a sign,
/// or ignores a suffix ("-1" is not 4294967295, "35junk" is not 35).
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SUPPORT_PARSE_H
#define ALIC_SUPPORT_PARSE_H

#include <cstdint>
#include <string>

namespace alic {

/// True when \p Arg is "<Name>=<value>"; \p Value then holds the (possibly
/// empty) text after the '='.
bool parseFlag(const char *Arg, const char *Name, std::string &Value);

/// Parses \p Text as a decimal count in [0, \p Max]: one or more digits
/// and nothing else.  On failure \p Out is left unchanged.
bool parseCount(const std::string &Text, uint64_t Max, uint64_t &Out);

/// Parses a `--threads` value: a count, or "auto" for the hardware
/// concurrency (at least 1).
bool parseThreads(const std::string &Text, unsigned &Out);

} // namespace alic

#endif // ALIC_SUPPORT_PARSE_H
