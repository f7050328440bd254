#include "util/json_parser.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

namespace fdx {

namespace {
constexpr size_t kMaxDepth = 128;
}  // namespace

/// Recursive-descent parser over the raw text. Positions in error
/// messages are 0-based byte offsets into the line — protocol messages
/// are single lines, so byte offsets are the useful coordinate.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    FDX_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("json: " + message + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char ch = text_[pos_];
      if (ch != ' ' && ch != '\t' && ch != '\n' && ch != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ConsumeLiteral(const char* literal) {
    for (const char* p = literal; *p != '\0'; ++p) {
      if (pos_ >= text_.size() || text_[pos_] != *p) {
        return Error(std::string("expected '") + literal + "'");
      }
      ++pos_;
    }
    return Status::OK();
  }

  Status ParseValue(JsonValue* out, size_t depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind_ = JsonValue::Kind::kString;
        return ParseString(&out->string_);
      case 't':
        FDX_RETURN_IF_ERROR(ConsumeLiteral("true"));
        out->kind_ = JsonValue::Kind::kBool;
        out->bool_ = true;
        return Status::OK();
      case 'f':
        FDX_RETURN_IF_ERROR(ConsumeLiteral("false"));
        out->kind_ = JsonValue::Kind::kBool;
        out->bool_ = false;
        return Status::OK();
      case 'n':
        FDX_RETURN_IF_ERROR(ConsumeLiteral("null"));
        out->kind_ = JsonValue::Kind::kNull;
        return Status::OK();
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, size_t depth) {
    ++pos_;  // '{'
    out->kind_ = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      std::string key;
      FDX_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      FDX_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      // Last duplicate wins, matching common parser behaviour.
      bool replaced = false;
      for (auto& member : out->members_) {
        if (member.first == key) {
          member.second = std::move(value);
          replaced = true;
          break;
        }
      }
      if (!replaced) out->members_.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, size_t depth) {
    ++pos_;  // '['
    out->kind_ = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    for (;;) {
      JsonValue value;
      FDX_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->array_.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  static void AppendUtf8(uint32_t code_point, std::string* out) {
    if (code_point < 0x80) {
      out->push_back(static_cast<char>(code_point));
    } else if (code_point < 0x800) {
      out->push_back(static_cast<char>(0xc0 | (code_point >> 6)));
      out->push_back(static_cast<char>(0x80 | (code_point & 0x3f)));
    } else if (code_point < 0x10000) {
      out->push_back(static_cast<char>(0xe0 | (code_point >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (code_point & 0x3f)));
    } else {
      out->push_back(static_cast<char>(0xf0 | (code_point >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code_point >> 12) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (code_point & 0x3f)));
    }
  }

  Status ParseHex4(uint32_t* value) {
    *value = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) return Error("truncated \\u escape");
      const char ch = text_[pos_++];
      *value <<= 4;
      if (ch >= '0' && ch <= '9') {
        *value |= static_cast<uint32_t>(ch - '0');
      } else if (ch >= 'a' && ch <= 'f') {
        *value |= static_cast<uint32_t>(ch - 'a' + 10);
      } else if (ch >= 'A' && ch <= 'F') {
        *value |= static_cast<uint32_t>(ch - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    ++pos_;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      const unsigned char ch = static_cast<unsigned char>(text_[pos_]);
      if (ch == '"') {
        ++pos_;
        return Status::OK();
      }
      if (ch < 0x20) return Error("unescaped control character in string");
      if (ch != '\\') {
        out->push_back(static_cast<char>(ch));
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (pos_ >= text_.size()) return Error("truncated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          uint32_t code_point = 0;
          FDX_RETURN_IF_ERROR(ParseHex4(&code_point));
          if (code_point >= 0xd800 && code_point <= 0xdbff) {
            // High surrogate: must be followed by \uDC00..\uDFFF.
            if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Error("lone high surrogate");
            }
            pos_ += 2;
            uint32_t low = 0;
            FDX_RETURN_IF_ERROR(ParseHex4(&low));
            if (low < 0xdc00 || low > 0xdfff) {
              return Error("invalid low surrogate");
            }
            code_point =
                0x10000 + ((code_point - 0xd800) << 10) + (low - 0xdc00);
          } else if (code_point >= 0xdc00 && code_point <= 0xdfff) {
            return Error("lone low surrogate");
          }
          AppendUtf8(code_point, out);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a JSON value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(value)) {
      pos_ = start;
      return Error("invalid number '" + token + "'");
    }
    out->kind_ = JsonValue::Kind::kNumber;
    out->number_ = value;
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  JsonParser parser(text);
  return parser.Parse();
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& member : members_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

std::optional<uint64_t> JsonValue::CountValue(uint64_t max) const {
  // 2^64 as a double; every double below it converts exactly.
  constexpr double kTwoTo64 = 18446744073709551616.0;
  if (!is_number() || !(number_ >= 0.0) || number_ >= kTwoTo64 ||
      number_ != std::floor(number_)) {
    return std::nullopt;
  }
  const uint64_t count = static_cast<uint64_t>(number_);
  if (count > max) return std::nullopt;
  return count;
}

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_number() ? value->number_value()
                                                : fallback;
}

bool JsonValue::BoolOr(const std::string& key, bool fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_bool() ? value->bool_value() : fallback;
}

std::string JsonValue::StringOr(const std::string& key,
                                const std::string& fallback) const {
  const JsonValue* value = Find(key);
  return value != nullptr && value->is_string() ? value->string_value()
                                                : fallback;
}

JsonValue JsonValue::MakeBool(bool v) {
  JsonValue value;
  value.kind_ = Kind::kBool;
  value.bool_ = v;
  return value;
}

JsonValue JsonValue::MakeNumber(double v) {
  JsonValue value;
  value.kind_ = Kind::kNumber;
  value.number_ = v;
  return value;
}

JsonValue JsonValue::MakeString(std::string v) {
  JsonValue value;
  value.kind_ = Kind::kString;
  value.string_ = std::move(v);
  return value;
}

}  // namespace fdx
