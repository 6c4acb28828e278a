#ifndef NMINE_OBS_JSON_PARSE_H_
#define NMINE_OBS_JSON_PARSE_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace nmine {
namespace obs {

/// Minimal JSON value for reading back the JSON this system itself emits
/// (metrics snapshots, trace_event files, BENCH_*.json documents). A
/// strict RFC 8259 subset: no \uXXXX decoding beyond Latin-1, numbers as
/// double. Not a general-purpose parser.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  /// Object member access; nullptr when absent or not an object.
  const JsonValue* Get(const std::string& key) const {
    if (type != Type::kObject) return nullptr;
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }

  /// Member's number value, or `dflt` when absent / not a number.
  double GetNumber(const std::string& key, double dflt) const {
    const JsonValue* v = Get(key);
    return v != nullptr && v->is_number() ? v->number_value : dflt;
  }
};

/// Deepest nesting of arrays and objects ParseJson accepts: `[[1]]` nests
/// 2 deep. The parser recurses once per level, so without a bound one
/// line of `[` could exhaust the thread's stack; deeper input is a syntax
/// error like any other. Everything nmine writes nests at most 5 deep
/// (JsonNestingTest.EmittedDocumentsNestWellBelowTheLimit).
inline constexpr int kMaxJsonDepth = 64;

/// Parses `text` as one JSON document (surrounding whitespace allowed).
/// Returns nullopt on any syntax error, including nesting deeper than
/// kMaxJsonDepth.
std::optional<JsonValue> ParseJson(const std::string& text);

/// Reads and parses a whole file; nullopt on IO or syntax error.
std::optional<JsonValue> ParseJsonFile(const std::string& path);

}  // namespace obs
}  // namespace nmine

#endif  // NMINE_OBS_JSON_PARSE_H_
