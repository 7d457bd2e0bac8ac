//===- support/TokenTable.h - Enum <-> token tables -----------*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One idiom for every enum that crosses a text boundary (cell keys,
/// aggregate JSON, CLI flags, the serve wire, snapshot validation): a
/// constexpr table of (enum value, token) rows that printing and parsing
/// both read, so adding a kind means adding one row.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SUPPORT_TOKENTABLE_H
#define ALIC_SUPPORT_TOKENTABLE_H

#include <cstddef>
#include <string>

namespace alic {

/// One row of a token table: an enum value and the canonical lower-case
/// token that cell keys, JSON, CLI flags and the serve wire spell it as.
template <typename KindT> struct TokenRow {
  KindT Kind;        ///< the enum value
  const char *Token; ///< its token
};

/// The token of \p Kind in \p Table, or nullptr when no row holds it.
template <typename KindT, size_t N>
const char *tokenOf(const TokenRow<KindT> (&Table)[N], KindT Kind) {
  for (const TokenRow<KindT> &Row : Table)
    if (Row.Kind == Kind)
      return Row.Token;
  return nullptr;
}

/// The kind whose token is \p Text; false (\p Out unchanged) when no row
/// of \p Table holds it.
template <typename KindT, size_t N>
bool parseToken(const TokenRow<KindT> (&Table)[N], const std::string &Text,
                KindT &Out) {
  for (const TokenRow<KindT> &Row : Table)
    if (Text == Row.Token) {
      Out = Row.Kind;
      return true;
    }
  return false;
}

/// Every token of \p Table joined by \p Separator (usage and error text).
template <typename KindT, size_t N>
std::string tokenList(const TokenRow<KindT> (&Table)[N],
                      const char *Separator) {
  std::string List;
  for (const TokenRow<KindT> &Row : Table)
    List += (List.empty() ? "" : Separator) + std::string(Row.Token);
  return List;
}

} // namespace alic

#endif // ALIC_SUPPORT_TOKENTABLE_H
