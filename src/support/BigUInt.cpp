//===- support/BigUInt.cpp ------------------------------------*- C++ -*-===//

#include "support/BigUInt.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace alic;

BigUInt::BigUInt(uint64_t Value) {
  if (Value == 0)
    return;
  Limbs.push_back(static_cast<uint32_t>(Value));
  if (Value >> 32)
    Limbs.push_back(static_cast<uint32_t>(Value >> 32));
}

void BigUInt::trim() {
  while (!Limbs.empty() && Limbs.back() == 0)
    Limbs.pop_back();
}

BigUInt &BigUInt::mulScalar(uint32_t Factor) {
  if (Factor == 0) {
    Limbs.clear();
    return *this;
  }
  uint64_t Carry = 0;
  for (uint32_t &Limb : Limbs) {
    uint64_t Cur = static_cast<uint64_t>(Limb) * Factor + Carry;
    Limb = static_cast<uint32_t>(Cur);
    Carry = Cur >> 32;
  }
  if (Carry)
    Limbs.push_back(static_cast<uint32_t>(Carry));
  return *this;
}

uint32_t BigUInt::divModScalar(uint32_t Divisor) {
  assert(Divisor != 0 && "division by zero");
  uint64_t Rem = 0;
  for (size_t I = Limbs.size(); I-- > 0;) {
    uint64_t Cur = (Rem << 32) | Limbs[I];
    Limbs[I] = static_cast<uint32_t>(Cur / Divisor);
    Rem = Cur % Divisor;
  }
  trim();
  return static_cast<uint32_t>(Rem);
}

int BigUInt::compare(const BigUInt &Rhs) const {
  if (Limbs.size() != Rhs.Limbs.size())
    return Limbs.size() < Rhs.Limbs.size() ? -1 : 1;
  for (size_t I = Limbs.size(); I-- > 0;)
    if (Limbs[I] != Rhs.Limbs[I])
      return Limbs[I] < Rhs.Limbs[I] ? -1 : 1;
  return 0;
}

double BigUInt::toDouble() const {
  double Result = 0.0;
  for (size_t I = Limbs.size(); I-- > 0;)
    Result = Result * 4294967296.0 + Limbs[I];
  return Result;
}

std::string BigUInt::toString() const {
  if (isZero())
    return "0";
  BigUInt Tmp = *this;
  std::string Digits;
  while (!Tmp.isZero()) {
    uint32_t Rem = Tmp.divModScalar(10);
    Digits.push_back(static_cast<char>('0' + Rem));
  }
  std::reverse(Digits.begin(), Digits.end());
  return Digits;
}

std::string BigUInt::toScientific(int Digits) const {
  assert(Digits >= 1 && "need at least one significant digit");
  std::string Dec = toString();
  if (Dec == "0")
    return "0";
  int Exp = static_cast<int>(Dec.size()) - 1;
  std::string Mant = Dec.substr(0, static_cast<size_t>(Digits));
  while (Mant.size() < static_cast<size_t>(Digits))
    Mant.push_back('0');
  std::string Result;
  Result.push_back(Mant[0]);
  if (Digits > 1) {
    Result.push_back('.');
    Result.append(Mant.begin() + 1, Mant.end());
  }
  Result += "e";
  Result += std::to_string(Exp);
  return Result;
}

uint64_t BigUInt::toU64() const {
  assert(Limbs.size() <= 2 && "BigUInt does not fit in uint64_t");
  uint64_t Value = 0;
  if (Limbs.size() > 1)
    Value = static_cast<uint64_t>(Limbs[1]) << 32;
  if (!Limbs.empty())
    Value |= Limbs[0];
  return Value;
}
