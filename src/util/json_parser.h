#ifndef FDX_UTIL_JSON_PARSER_H_
#define FDX_UTIL_JSON_PARSER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace fdx {

/// Parsed JSON document tree — the decoding half of the service
/// protocol (util/json_writer is the encoding half). Strict RFC 8259
/// subset: UTF-8 input, \uXXXX escapes (including surrogate pairs),
/// doubles for all numbers, duplicate object keys keep the last value.
/// Object member order is preserved for diagnostics, lookup is by key.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : kind_(Kind::kNull) {}

  /// Parses a complete document; trailing non-whitespace is an error,
  /// as is nesting deeper than 128 levels (a framing guard — protocol
  /// messages are shallow).
  static Result<JsonValue> Parse(const std::string& text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed accessors. Preconditions: matching kind().
  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// The number as an integer in [0, max]; nullopt for a non-number, a
  /// fraction, a negative value, or one above `max`. Callers read JSON
  /// integers through this, never through a cast of number_value(),
  /// which wraps negatives and is undefined past the integer's range.
  std::optional<uint64_t> CountValue(uint64_t max = UINT64_MAX) const;

  /// Object member lookup; null for non-objects and missing keys.
  const JsonValue* Find(const std::string& key) const;

  /// Convenience getters with fallbacks (missing or wrong-typed members
  /// return the fallback — the protocol treats both as "not supplied").
  double NumberOr(const std::string& key, double fallback) const;
  bool BoolOr(const std::string& key, bool fallback) const;
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;

  /// Builders (used by tests).
  static JsonValue MakeBool(bool v);
  static JsonValue MakeNumber(double v);
  static JsonValue MakeString(std::string v);

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;

  friend class JsonParser;
};

}  // namespace fdx

#endif  // FDX_UTIL_JSON_PARSER_H_
