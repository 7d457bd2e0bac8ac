//===- support/Json.h - Minimal JSON reader/writer helpers ----*- C++ -*-===//
//
// Part of the ALIC project: a reproduction of "Minimizing the Cost of
// Iterative Compilation with Active Learning" (Ogilvie et al., CGO 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny JSON facility shared by every line-oriented JSON surface in the
/// project: the campaign cell ledger (exp/Campaign) and the serve wire
/// protocol (serve/Wire).  Parsing is a strict recursive descent over one
/// null-terminated document; rendering of doubles uses the shortest
/// std::to_chars form, which strtod parses back to the same bits, so
/// checkpointed values survive a serialize/parse round trip exactly.
///
/// This is deliberately not a general JSON library: no streaming, no
/// \\uXXXX escapes (none of our producers emit them), numbers restricted
/// to the JSON grammar with finite values, and container nesting capped
/// (the wire surface reads untrusted sockets, so unbounded recursion or
/// smuggled NaN/Infinity costs must die at the parser).  Both of our
/// surfaces are machine-to-machine lines we also produce, so strictness
/// is a feature — anything unparsable is a crash remnant or a protocol
/// error, and the caller skips or rejects it.
///
//===----------------------------------------------------------------------===//

#ifndef ALIC_SUPPORT_JSON_H
#define ALIC_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace alic {

/// One parsed JSON value (a small recursive variant).
struct JsonValue {
  /// JSON type tag.
  enum class Kind { Null, Bool, Number, String, Array, Object };
  /// Type of this value.
  Kind K = Kind::Null;
  /// Payload of Kind::Bool values.
  bool BoolValue = false;
  /// Payload of Kind::Number values.
  double Number = 0.0;
  /// Payload of Kind::String values.
  std::string Str;
  /// Payload of Kind::Array values, in document order.
  std::vector<JsonValue> Items;
  /// Payload of Kind::Object values, in document order (duplicate keys
  /// are kept; field() returns the first).
  std::vector<std::pair<std::string, JsonValue>> Fields;

  /// First field named \p Name, or nullptr.  Object values only.
  const JsonValue *field(const char *Name) const {
    for (const auto &[Key, Value] : Fields)
      if (Key == Name)
        return &Value;
    return nullptr;
  }
};

/// Parses the whole of \p Text as one JSON document into \p Out.  Returns
/// false on any syntax error or trailing garbage (whitespace excepted),
/// on numbers outside the JSON grammar or non-finite after conversion
/// (nan/inf/hex floats), and on container nesting deeper than 64 levels.
bool parseJson(const char *Text, JsonValue &Out);

/// Parses the whole of \p Text as one JSON number under the same strict
/// grammar parseJson applies (no surrounding whitespace, no leading '+',
/// no nan/inf/hex, finite after conversion).  On failure \p Out is left
/// unchanged.
bool parseJsonNumber(const std::string &Text, double &Out);

/// Shortest decimal rendering of \p Value that strtod parses back to the
/// same IEEE-754 bits (std::to_chars), so doubles written to a ledger or
/// a wire line round-trip exactly.  Non-finite input renders as "null"
/// (valid JSON, unlike a bare nan/inf token).
std::string formatJsonDouble(double Value);

/// Escapes \p Text for embedding inside a JSON string literal (quotes not
/// included).  Control characters, quote, and backslash only — the output
/// stays ASCII-transparent for everything else.
std::string jsonEscape(const std::string &Text);

/// Reads object field \p Name as a number into \p Out; false when the
/// field is missing or not a number.
bool jsonNumberField(const JsonValue &Object, const char *Name, double &Out);

/// Converts the JSON number \p Value to an integer count in [0, \p Max].
/// JSON numbers arrive as doubles, and casting a negative, fractional or
/// out-of-range double to an integer type is undefined, so those are
/// rejected (false, \p Out unchanged) instead.
bool jsonCount(double Value, uint64_t Max, uint64_t &Out);

/// Reads object field \p Name as a string into \p Out; false when the
/// field is missing or not a string.
bool jsonStringField(const JsonValue &Object, const char *Name,
                     std::string &Out);

} // namespace alic

#endif // ALIC_SUPPORT_JSON_H
