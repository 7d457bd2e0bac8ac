//===- support/Parse.cpp --------------------------------------*- C++ -*-===//

#include "support/Parse.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <thread>

using namespace alic;

bool alic::parseFlag(const char *Arg, const char *Name, std::string &Value) {
  size_t Len = std::strlen(Name);
  if (std::strncmp(Arg, Name, Len) != 0 || Arg[Len] != '=')
    return false;
  Value = Arg + Len + 1;
  return true;
}

bool alic::parseCount(const std::string &Text, uint64_t Max, uint64_t &Out) {
  if (Text.empty())
    return false;
  uint64_t Value = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    uint64_t Digit = uint64_t(C - '0');
    if (Digit > Max || Value > (Max - Digit) / 10)
      return false; // Value * 10 + Digit would exceed Max
    Value = Value * 10 + Digit;
  }
  Out = Value;
  return true;
}

bool alic::parseThreads(const std::string &Text, unsigned &Out) {
  if (Text == "auto") {
    Out = std::max(1u, std::thread::hardware_concurrency());
    return true;
  }
  uint64_t Count = 0;
  if (!parseCount(Text, std::numeric_limits<unsigned>::max(), Count))
    return false;
  Out = unsigned(Count);
  return true;
}
