#include "data/cell_json.h"

#include <cerrno>
#include <cstdlib>
#include <string>

#include "util/string_util.h"

namespace fdx {

void WriteCellJson(JsonWriter* json, const Value& cell) {
  switch (cell.type()) {
    case ValueType::kNull:
      json->Null();
      return;
    case ValueType::kInt:
      json->BeginArray();
      json->String("i");
      json->String(std::to_string(cell.AsInt()));
      json->EndArray();
      return;
    case ValueType::kDouble:
      json->BeginArray();
      json->String("d");
      json->String(ExactDouble(cell.AsDouble()));
      json->EndArray();
      return;
    case ValueType::kString:
      json->BeginArray();
      json->String("s");
      json->String(cell.AsString());
      json->EndArray();
      return;
  }
}

Result<Value> ParseCellJson(const JsonValue& cell) {
  if (cell.is_null()) return Value::Null();
  if (!cell.is_array() || cell.array().size() != 2 ||
      !cell.array()[0].is_string() || !cell.array()[1].is_string()) {
    return Status::InvalidArgument("cell must be null or a [tag, text] pair");
  }
  const std::string& tag = cell.array()[0].string_value();
  const std::string& text = cell.array()[1].string_value();
  errno = 0;
  char* end = nullptr;
  if (tag == "i") {
    const long long parsed = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
      return Status::InvalidArgument("malformed int cell '" + text + "'");
    }
    return Value(static_cast<int64_t>(parsed));
  }
  if (tag == "d") {
    const double parsed = std::strtod(text.c_str(), &end);
    if (text.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
      return Status::InvalidArgument("malformed double cell '" + text + "'");
    }
    return Value(parsed);
  }
  if (tag == "s") return Value(text);
  return Status::InvalidArgument("unknown cell tag '" + tag + "'");
}

}  // namespace fdx
