#include "convert/json_converter.h"

#include <cctype>
#include <cmath>

#include "common/string_util.h"
#include "xml/parser.h"

namespace netmark::convert {

namespace {

// Tag-safe rendering of a JSON key ("fiscal year" -> "fiscal_year").
std::string SanitizeKey(std::string_view key) {
  std::string out;
  out.reserve(key.size());
  for (char c : key) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '-' || c == '_' ||
        c == '.') {
      out += c;
    } else {
      out += '_';
    }
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out = "f_" + out;
  }
  return out;
}

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : in_(text) {}

  netmark::Result<JsonValue> Run() {
    SkipWhitespace();
    NETMARK_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWhitespace();
    if (pos_ != in_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  netmark::Status Error(const std::string& message) const {
    return netmark::Status::ParseError(
        netmark::StringPrintf("JSON offset %zu: %s", pos_, message.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < in_.size() &&
           (in_[pos_] == ' ' || in_[pos_] == '\t' || in_[pos_] == '\n' ||
            in_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < in_.size() && in_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  netmark::Result<JsonValue> ParseValue() {
    if (pos_ >= in_.size()) return Error("unexpected end of input");
    switch (in_[pos_]) {
      case '{':
      case '[': {
        // Objects and arrays recurse once per level: the markup bound holds.
        if (depth_ == xml::kMaxNestingDepth) {
          return Error(netmark::StringPrintf("nested deeper than %zu levels",
                                             xml::kMaxNestingDepth));
        }
        ++depth_;
        auto value = in_[pos_] == '{' ? ParseObject() : ParseArray();
        --depth_;
        return value;
      }
      case '"': {
        NETMARK_ASSIGN_OR_RETURN(std::string s, ParseString());
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = std::move(s);
        return v;
      }
      case 't':
        if (in_.compare(pos_, 4, "true") == 0) {
          pos_ += 4;
          JsonValue v;
          v.kind = JsonValue::Kind::kBool;
          v.boolean = true;
          return v;
        }
        return Error("bad literal");
      case 'f':
        if (in_.compare(pos_, 5, "false") == 0) {
          pos_ += 5;
          JsonValue v;
          v.kind = JsonValue::Kind::kBool;
          v.boolean = false;
          return v;
        }
        return Error("bad literal");
      case 'n':
        if (in_.compare(pos_, 4, "null") == 0) {
          pos_ += 4;
          return JsonValue{};
        }
        return Error("bad literal");
      default:
        return ParseNumber();
    }
  }

  netmark::Result<JsonValue> ParseObject() {
    ++pos_;  // '{'
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    SkipWhitespace();
    if (Consume('}')) return v;
    while (true) {
      SkipWhitespace();
      if (pos_ >= in_.size() || in_[pos_] != '"') return Error("expected object key");
      NETMARK_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after key");
      SkipWhitespace();
      NETMARK_ASSIGN_OR_RETURN(JsonValue member, ParseValue());
      v.object.emplace_back(std::move(key), std::move(member));
      SkipWhitespace();
      if (Consume('}')) return v;
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  netmark::Result<JsonValue> ParseArray() {
    ++pos_;  // '['
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    SkipWhitespace();
    if (Consume(']')) return v;
    while (true) {
      SkipWhitespace();
      NETMARK_ASSIGN_OR_RETURN(JsonValue element, ParseValue());
      v.array.push_back(std::move(element));
      SkipWhitespace();
      if (Consume(']')) return v;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  netmark::Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < in_.size()) {
      char c = in_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= in_.size()) return Error("truncated escape");
        char e = in_[pos_];
        ++pos_;
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            NETMARK_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
            // Surrogate pair?
            if (cp >= 0xD800 && cp <= 0xDBFF && pos_ + 1 < in_.size() &&
                in_[pos_] == '\\' && in_[pos_ + 1] == 'u') {
              pos_ += 2;
              NETMARK_ASSIGN_OR_RETURN(uint32_t low, ParseHex4());
              if (low >= 0xDC00 && low <= 0xDFFF) {
                cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
              } else {
                return Error("bad low surrogate");
              }
            }
            AppendUtf8(&out, cp);
            break;
          }
          default:
            return Error("unknown escape");
        }
        continue;
      }
      out += c;
      ++pos_;
    }
    return Error("unterminated string");
  }

  netmark::Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > in_.size()) return Error("truncated \\u escape");
    uint32_t v = 0;
    for (int k = 0; k < 4; ++k) {
      char h = in_[pos_ + static_cast<size_t>(k)];
      v <<= 4;
      if (h >= '0' && h <= '9') v |= static_cast<uint32_t>(h - '0');
      else if (h >= 'a' && h <= 'f') v |= static_cast<uint32_t>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') v |= static_cast<uint32_t>(h - 'A' + 10);
      else return Error("bad hex digit in \\u escape");
    }
    pos_ += 4;
    return v;
  }

  static void AppendUtf8(std::string* out, uint32_t cp) {
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (cp >> 18));
      *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  netmark::Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < in_.size() && in_[pos_] == '-') ++pos_;
    while (pos_ < in_.size() &&
           (std::isdigit(static_cast<unsigned char>(in_[pos_])) || in_[pos_] == '.' ||
            in_[pos_] == 'e' || in_[pos_] == 'E' || in_[pos_] == '+' ||
            in_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    auto number = netmark::ParseDouble(in_.substr(start, pos_ - start));
    if (!number.ok()) return Error("bad number");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = *number;
    return v;
  }

  std::string_view in_;
  size_t pos_ = 0;
  size_t depth_ = 0;
};

// Renders a JSON number without trailing ".000000" noise.
std::string NumberToString(double d) {
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    return std::to_string(static_cast<long long>(d));
  }
  std::string s = netmark::StringPrintf("%.17g", d);
  return s;
}

bool IsTitleKey(const std::string& key) {
  std::string k = netmark::ToLower(key);
  return k == "title" || k == "name" || k == "heading" || k == "subject";
}

// Emits `value` as children of `parent`.
void EmitValue(xml::Document* doc, xml::NodeId parent, const JsonValue& value) {
  switch (value.kind) {
    case JsonValue::Kind::kNull:
      doc->AddAttribute(parent, "null", "true");
      break;
    case JsonValue::Kind::kBool:
      doc->AppendChild(parent, doc->CreateText(value.boolean ? "true" : "false"));
      break;
    case JsonValue::Kind::kNumber:
      doc->AppendChild(parent, doc->CreateText(NumberToString(value.number)));
      break;
    case JsonValue::Kind::kString:
      if (!value.string.empty()) {
        doc->AppendChild(parent, doc->CreateText(value.string));
      }
      break;
    case JsonValue::Kind::kArray:
      for (const JsonValue& element : value.array) {
        xml::NodeId item = doc->CreateElement("item");
        doc->AppendChild(parent, item);
        EmitValue(doc, item, element);
      }
      break;
    case JsonValue::Kind::kObject:
      for (const auto& [key, member] : value.object) {
        // Title-ish string fields become CONTEXT headings so JSON documents
        // participate in context search.
        if (IsTitleKey(key) && member.kind == JsonValue::Kind::kString) {
          xml::NodeId context = doc->CreateElement("context");
          doc->AppendChild(context, doc->CreateText(member.string));
          doc->AppendChild(parent, context);
          continue;
        }
        std::string tag = SanitizeKey(key);
        xml::NodeId field = doc->CreateElement(tag);
        if (tag != key) doc->AddAttribute(field, "name", key);
        doc->AppendChild(parent, field);
        EmitValue(doc, field, member);
      }
      break;
  }
}

}  // namespace

netmark::Result<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).Run();
}

bool JsonConverter::Sniff(std::string_view content) const {
  std::string_view t = netmark::TrimView(content);
  if (t.empty() || (t[0] != '{' && t[0] != '[')) return false;
  return ParseJson(t).ok();
}

netmark::Result<xml::Document> JsonConverter::Convert(std::string_view content,
                                                      const ConvertContext& ctx) const {
  NETMARK_ASSIGN_OR_RETURN(JsonValue value, ParseJson(content));
  UpmarkBuilder builder(ctx.file_name, format());
  xml::Document* doc = builder.doc();
  xml::NodeId holder = doc->CreateElement("json");
  builder.AddBlock(holder);
  EmitValue(doc, holder, value);
  return builder.Finish();
}

}  // namespace netmark::convert
