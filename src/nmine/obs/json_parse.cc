#include "nmine/obs/json_parse.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace nmine {
namespace obs {
namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  std::optional<JsonValue> Parse() {
    SkipSpace();
    std::optional<JsonValue> value = ParseValue();
    if (!value.has_value()) return std::nullopt;
    SkipSpace();
    if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
    return value;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* literal) {
    size_t n = 0;
    while (literal[n] != '\0') ++n;
    if (text_.compare(pos_, n, literal) != 0) return false;
    pos_ += n;
    return true;
  }

  std::optional<JsonValue> ParseValue() {
    SkipSpace();
    if (pos_ >= text_.size()) return std::nullopt;
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      if (depth_ == kMaxJsonDepth) return std::nullopt;
      ++depth_;
      std::optional<JsonValue> out = c == '{' ? ParseObject() : ParseArray();
      --depth_;
      return out;
    }
    if (c == '"') return ParseString();
    if (c == 't' || c == 'f') return ParseBool();
    if (c == 'n') {
      if (!ConsumeLiteral("null")) return std::nullopt;
      return JsonValue{};
    }
    return ParseNumber();
  }

  std::optional<JsonValue> ParseObject() {
    if (!Consume('{')) return std::nullopt;
    JsonValue out;
    out.type = JsonValue::Type::kObject;
    SkipSpace();
    if (Consume('}')) return out;
    while (true) {
      SkipSpace();
      std::optional<JsonValue> key = ParseString();
      if (!key.has_value()) return std::nullopt;
      SkipSpace();
      if (!Consume(':')) return std::nullopt;
      std::optional<JsonValue> value = ParseValue();
      if (!value.has_value()) return std::nullopt;
      out.object[key->string_value] = std::move(*value);
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return out;
      return std::nullopt;
    }
  }

  std::optional<JsonValue> ParseArray() {
    if (!Consume('[')) return std::nullopt;
    JsonValue out;
    out.type = JsonValue::Type::kArray;
    SkipSpace();
    if (Consume(']')) return out;
    while (true) {
      std::optional<JsonValue> value = ParseValue();
      if (!value.has_value()) return std::nullopt;
      out.array.push_back(std::move(*value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return out;
      return std::nullopt;
    }
  }

  std::optional<JsonValue> ParseString() {
    if (!Consume('"')) return std::nullopt;
    JsonValue out;
    out.type = JsonValue::Type::kString;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) return std::nullopt;
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
            out.string_value.push_back('"');
            break;
          case '\\':
            out.string_value.push_back('\\');
            break;
          case '/':
            out.string_value.push_back('/');
            break;
          case 'b':
            out.string_value.push_back('\b');
            break;
          case 'f':
            out.string_value.push_back('\f');
            break;
          case 'n':
            out.string_value.push_back('\n');
            break;
          case 'r':
            out.string_value.push_back('\r');
            break;
          case 't':
            out.string_value.push_back('\t');
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return std::nullopt;
            char* end = nullptr;
            std::string hex = text_.substr(pos_, 4);
            long code = std::strtol(hex.c_str(), &end, 16);
            if (end != hex.c_str() + 4) return std::nullopt;
            pos_ += 4;
            // Latin-1 subset is enough for our own escaper's output.
            out.string_value.push_back(static_cast<char>(code & 0xff));
            break;
          }
          default:
            return std::nullopt;
        }
      } else {
        out.string_value.push_back(c);
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<JsonValue> ParseBool() {
    JsonValue out;
    out.type = JsonValue::Type::kBool;
    if (ConsumeLiteral("true")) {
      out.bool_value = true;
      return out;
    }
    if (ConsumeLiteral("false")) {
      out.bool_value = false;
      return out;
    }
    return std::nullopt;
  }

  std::optional<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    bool any = false;
    auto eat_digits = [&] {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        any = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (any && pos_ < text_.size() &&
        (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
        ++pos_;
      }
      eat_digits();
    }
    if (!any) return std::nullopt;
    JsonValue out;
    out.type = JsonValue::Type::kNumber;
    out.number_value = std::atof(text_.substr(start, pos_ - start).c_str());
    return out;
  }

  const std::string& text_;
  size_t pos_ = 0;
  int depth_ = 0;  // arrays and objects open around pos_
};

}  // namespace

std::optional<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).Parse();
}

std::optional<JsonValue> ParseJsonFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  return ParseJson(buf.str());
}

}  // namespace obs
}  // namespace nmine
