//===- support/Env.cpp ----------------------------------------*- C++ -*-===//

#include "support/Env.h"

#include "support/Error.h"

#include <cstdlib>

using namespace alic;

std::string alic::getEnvString(const char *Name, const std::string &Default) {
  const char *Value = std::getenv(Name);
  if (!Value || !*Value)
    return Default;
  return Value;
}

int64_t alic::getEnvInt(const char *Name, int64_t Default) {
  const char *Value = std::getenv(Name);
  if (!Value || !*Value)
    return Default;
  char *End = nullptr;
  long long Parsed = std::strtoll(Value, &End, 10);
  if (End == Value || *End != '\0')
    return Default;
  return Parsed;
}

bool alic::parseScaleKind(const std::string &Text, ScaleKind &Out) {
  for (ScaleKind Kind : {ScaleKind::Smoke, ScaleKind::Bench, ScaleKind::Paper})
    if (Text == scaleName(Kind)) {
      Out = Kind;
      return true;
    }
  return false;
}

ScaleKind alic::getScaleKind() {
  ScaleKind Kind = ScaleKind::Bench;
  parseScaleKind(getEnvString("ALIC_SCALE", "bench"), Kind);
  return Kind;
}

const char *alic::scaleName(ScaleKind Kind) {
  switch (Kind) {
  case ScaleKind::Smoke:
    return "smoke";
  case ScaleKind::Bench:
    return "bench";
  case ScaleKind::Paper:
    return "paper";
  }
  alic_unreachable("unknown scale kind");
}
