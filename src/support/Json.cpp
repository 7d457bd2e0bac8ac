//===- support/Json.cpp ---------------------------------------*- C++ -*-===//

#include "support/Json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>

using namespace alic;

namespace {

/// Scans one JSON number at \p P into \p Out and returns the first byte
/// past it, or nullptr when \p P does not start with one.  Strict JSON
/// number grammar: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?.
/// strtod alone also accepts "nan", "inf"/"infinity", and hex floats,
/// none of which are JSON — scan the token shape first so a hostile line
/// cannot smuggle non-finite costs into the model.
const char *scanJsonNumber(const char *P, double &Out) {
  const char *Q = P;
  if (*Q == '-')
    ++Q;
  if (*Q == '0') {
    ++Q;
  } else if (*Q >= '1' && *Q <= '9') {
    while (*Q >= '0' && *Q <= '9')
      ++Q;
  } else {
    return nullptr;
  }
  if (*Q == '.') {
    ++Q;
    if (*Q < '0' || *Q > '9')
      return nullptr;
    while (*Q >= '0' && *Q <= '9')
      ++Q;
  }
  if (*Q == 'e' || *Q == 'E') {
    ++Q;
    if (*Q == '+' || *Q == '-')
      ++Q;
    if (*Q < '0' || *Q > '9')
      return nullptr;
    while (*Q >= '0' && *Q <= '9')
      ++Q;
  }
  char *End = nullptr;
  double Number = std::strtod(P, &End);
  // End != Q would mean strtod read past the JSON token (e.g. "0x12");
  // overflow ("1e999") yields infinity, equally unrepresentable.
  if (End != Q || !std::isfinite(Number))
    return nullptr;
  Out = Number;
  return Q;
}

/// Recursive-descent parser over one null-terminated document.
class JsonParser {
public:
  explicit JsonParser(const char *Text) : P(Text) {}

  bool parse(JsonValue &Out) {
    if (!parseValue(Out, 0))
      return false;
    skipWs();
    return *P == '\0';
  }

private:
  void skipWs() {
    while (*P == ' ' || *P == '\t' || *P == '\r' || *P == '\n')
      ++P;
  }

  bool literal(const char *Word) {
    size_t Len = std::strlen(Word);
    if (std::strncmp(P, Word, Len) != 0)
      return false;
    P += Len;
    return true;
  }

  bool parseString(std::string &Out) {
    if (*P != '"')
      return false;
    ++P;
    Out.clear();
    while (*P && *P != '"') {
      if (*P == '\\') {
        ++P;
        switch (*P) {
        case '"': Out.push_back('"'); break;
        case '\\': Out.push_back('\\'); break;
        case '/': Out.push_back('/'); break;
        case 'n': Out.push_back('\n'); break;
        case 't': Out.push_back('\t'); break;
        case 'r': Out.push_back('\r'); break;
        case 'b': Out.push_back('\b'); break;
        case 'f': Out.push_back('\f'); break;
        default: return false; // \uXXXX never appears in our documents
        }
        ++P;
      } else {
        Out.push_back(*P++);
      }
    }
    if (*P != '"')
      return false;
    ++P;
    return true;
  }

  /// Deepest container nesting accepted.  Our documents nest 2-3 levels;
  /// the cap keeps a hostile socket line of 4 MiB of '[' from recursing
  /// the stack away.
  static constexpr unsigned MaxDepth = 64;

  bool parseValue(JsonValue &Out, unsigned Depth) {
    skipWs();
    if (Depth >= MaxDepth)
      return false;
    if (*P == '{') {
      ++P;
      Out.K = JsonValue::Kind::Object;
      skipWs();
      if (*P == '}') {
        ++P;
        return true;
      }
      while (true) {
        skipWs();
        std::string Key;
        if (!parseString(Key))
          return false;
        skipWs();
        if (*P != ':')
          return false;
        ++P;
        JsonValue Value;
        if (!parseValue(Value, Depth + 1))
          return false;
        Out.Fields.emplace_back(std::move(Key), std::move(Value));
        skipWs();
        if (*P == ',') {
          ++P;
          continue;
        }
        if (*P == '}') {
          ++P;
          return true;
        }
        return false;
      }
    }
    if (*P == '[') {
      ++P;
      Out.K = JsonValue::Kind::Array;
      skipWs();
      if (*P == ']') {
        ++P;
        return true;
      }
      while (true) {
        JsonValue Item;
        if (!parseValue(Item, Depth + 1))
          return false;
        Out.Items.push_back(std::move(Item));
        skipWs();
        if (*P == ',') {
          ++P;
          continue;
        }
        if (*P == ']') {
          ++P;
          return true;
        }
        return false;
      }
    }
    if (*P == '"') {
      Out.K = JsonValue::Kind::String;
      return parseString(Out.Str);
    }
    if (literal("true")) {
      Out.K = JsonValue::Kind::Bool;
      Out.BoolValue = true;
      return true;
    }
    if (literal("false")) {
      Out.K = JsonValue::Kind::Bool;
      return true;
    }
    if (literal("null"))
      return true;
    const char *End = scanJsonNumber(P, Out.Number);
    if (!End)
      return false;
    Out.K = JsonValue::Kind::Number;
    P = End;
    return true;
  }

  const char *P;
};

} // namespace

bool alic::parseJson(const char *Text, JsonValue &Out) {
  return JsonParser(Text).parse(Out);
}

bool alic::parseJsonNumber(const std::string &Text, double &Out) {
  double Number = 0.0;
  const char *End = scanJsonNumber(Text.c_str(), Number);
  if (!End || End != Text.c_str() + Text.size())
    return false;
  Out = Number;
  return true;
}

std::string alic::formatJsonDouble(double Value) {
  // JSON has no non-finite numbers; emit null (as JSON.stringify does)
  // rather than a bare nan/inf token that breaks the whole document.
  if (!std::isfinite(Value))
    return "null";
  char Buffer[64];
  auto [Ptr, Ec] = std::to_chars(Buffer, Buffer + sizeof(Buffer), Value);
  if (Ec != std::errc())
    return "0";
  return std::string(Buffer, Ptr);
}

std::string alic::jsonEscape(const std::string &Text) {
  std::string Out;
  Out.reserve(Text.size());
  for (char C : Text) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\t': Out += "\\t"; break;
    case '\r': Out += "\\r"; break;
    case '\b': Out += "\\b"; break;
    case '\f': Out += "\\f"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(C);
      }
    }
  }
  return Out;
}

bool alic::jsonNumberField(const JsonValue &Object, const char *Name,
                           double &Out) {
  const JsonValue *Field = Object.field(Name);
  if (!Field || Field->K != JsonValue::Kind::Number)
    return false;
  Out = Field->Number;
  return true;
}

bool alic::jsonCount(double Value, uint64_t Max, uint64_t &Out) {
  // 2^64 is exact as a double; nothing at or above it converts.
  if (!(Value >= 0.0) || Value >= 18446744073709551616.0 ||
      Value != std::floor(Value) || uint64_t(Value) > Max)
    return false;
  Out = uint64_t(Value);
  return true;
}

bool alic::jsonStringField(const JsonValue &Object, const char *Name,
                           std::string &Out) {
  const JsonValue *Field = Object.field(Name);
  if (!Field || Field->K != JsonValue::Kind::String)
    return false;
  Out = Field->Str;
  return true;
}
