#include "mtsched/obs/json.hpp"

#include <cctype>

#include "mtsched/core/error.hpp"

namespace mtsched::obs::json {

namespace {

/// Containers nest at most this deep. The parser recurses once per level,
/// so the bound keeps hostile input (a megabyte of '[') off the stack.
constexpr std::size_t kMaxDepth = 256;

class Cursor {
 public:
  Cursor(const std::string& text, const std::string& what)
      : text_(text), what_(what) {}

  Value parse_document() {
    auto v = parse_value();
    skip_ws();
    require(pos_ == text_.size(), "trailing characters after document");
    return v;
  }

 private:
  // Error text is built only on the throw path: require() runs once per
  // character parsed.
  void require(bool ok, const char* msg) {
    if (!ok) fail(msg);
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw core::ParseError(what_ + ": " + msg + " at offset " +
                           std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    require(pos_ < text_.size(), "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_word(const char* word) {
    const std::size_t n = std::char_traits<char>::length(word);
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      require(pos_ < text_.size(), "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        require(pos_ < text_.size(), "unterminated escape");
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          default: fail("unsupported escape");
        }
      } else {
        out += c;
      }
    }
    return out;
  }

  /// `depth` counts the containers enclosing this value.
  Value parse_value(std::size_t depth = 0) {
    skip_ws();
    Value v;
    const char c = peek();
    if (c == '{' || c == '[') {
      require(depth < kMaxDepth, "nesting too deep");
    }
    if (c == '"') {
      v.type = Value::Type::String;
      v.str = parse_string();
    } else if (c == 't' || c == 'f') {
      v.type = Value::Type::Bool;
      v.boolean = consume_word("true");
      require(v.boolean || consume_word("false"), "expected a value");
    } else if (c == '{') {
      v.type = Value::Type::Object;
      ++pos_;
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        v.members.emplace_back(std::move(key), parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        break;
      }
    } else if (c == '[') {
      v.type = Value::Type::Array;
      ++pos_;
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      while (true) {
        v.items.push_back(parse_value(depth + 1));
        skip_ws();
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        break;
      }
    } else {
      v.type = Value::Type::Number;
      const std::size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
              text_[pos_] == 'e' || text_[pos_] == 'E')) {
        ++pos_;
      }
      require(pos_ > start, "expected a value");
      try {
        v.num = std::stod(text_.substr(start, pos_ - start));
      } catch (const std::exception&) {
        fail("malformed number");
      }
    }
    return v;
  }

  const std::string& text_;
  const std::string& what_;
  std::size_t pos_ = 0;
};

}  // namespace

Value parse(const std::string& text, const std::string& what) {
  return Cursor(text, what).parse_document();
}

const Value& member(const Value& obj, const std::string& key,
                    const std::string& what) {
  const Value* v = obj.find(key);
  if (v == nullptr) {
    throw core::ParseError(what + ": missing key '" + key + "'");
  }
  return *v;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace mtsched::obs::json
