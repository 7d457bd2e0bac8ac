//===- support/BigUInt.h - Arbitrary-precision unsigned ints --*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact arbitrary-precision unsigned integer.  SPAPT search-space
/// cardinalities reach 1.33e27 (Table 1 of the paper), which overflows
/// uint64_t, so exact cardinalities are carried in BigUInt.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SUPPORT_BIGUINT_H
#define ALIC_SUPPORT_BIGUINT_H

#include <cstdint>
#include <string>
#include <vector>

namespace alic {

/// Unsigned integer of unbounded width, little-endian base-2^32 limbs.
class BigUInt {
public:
  /// Constructs the value zero.
  BigUInt() = default;

  /// Constructs from a 64-bit value.
  BigUInt(uint64_t Value);

  /// Multiplies in place by a 32-bit factor.
  BigUInt &mulScalar(uint32_t Factor);

  /// Divides in place by a nonzero 32-bit divisor and returns the remainder.
  uint32_t divModScalar(uint32_t Divisor);

  /// Three-way comparison.
  int compare(const BigUInt &Rhs) const;

  bool operator==(const BigUInt &Rhs) const { return compare(Rhs) == 0; }
  bool operator!=(const BigUInt &Rhs) const { return compare(Rhs) != 0; }
  bool operator<(const BigUInt &Rhs) const { return compare(Rhs) < 0; }
  bool operator<=(const BigUInt &Rhs) const { return compare(Rhs) <= 0; }
  bool operator>(const BigUInt &Rhs) const { return compare(Rhs) > 0; }
  bool operator>=(const BigUInt &Rhs) const { return compare(Rhs) >= 0; }

  /// Returns true if the value is zero.
  bool isZero() const { return Limbs.empty(); }

  /// Returns the closest double (may round for values above 2^53).
  double toDouble() const;

  /// Returns the value as a decimal string.
  std::string toString() const;

  /// Returns the value in scientific notation with \p Digits significant
  /// digits, e.g. "3.78e14" — the format used by Table 1 of the paper.
  std::string toScientific(int Digits = 3) const;

  /// Returns the value if it fits in uint64_t.
  /// Asserts when the value is too wide.
  uint64_t toU64() const;

private:
  void trim();

  std::vector<uint32_t> Limbs; // little-endian, no trailing zeros
};

} // namespace alic

#endif // ALIC_SUPPORT_BIGUINT_H
