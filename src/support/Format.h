//===- support/Format.h - String formatting helpers -----------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// printf-style std::string formatting and small number-rendering helpers
/// shared by the table writers, benches, and examples.  The library avoids
/// <iostream>; all console output funnels through these helpers.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SUPPORT_FORMAT_H
#define ALIC_SUPPORT_FORMAT_H

#include <string>
#include <vector>

namespace alic {

/// Returns the printf-formatted string.
std::string formatString(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Renders \p Value like the paper's tables: scientific for very large or
/// very small magnitudes ("2.62e4"), fixed otherwise ("57.46").
std::string formatPaperNumber(double Value);

/// Renders a duration in seconds with a human unit ("3.2 ms", "2.1 h").
std::string formatSeconds(double Seconds);

/// Joins \p Parts with \p Sep.
std::string joinStrings(const std::vector<std::string> &Parts,
                        const std::string &Sep);

/// Pads \p Text on the left with spaces to at least \p Width columns.
std::string padLeft(const std::string &Text, size_t Width);

} // namespace alic

#endif // ALIC_SUPPORT_FORMAT_H
