#include "xml/parser.h"

#include <array>
#include <cctype>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "xml/entities.h"

namespace netmark::xml {

namespace {

bool IsNameStartChar(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}
bool IsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':' ||
         c == '-' || c == '.';
}

// HTML elements that never have content.
bool IsVoidElement(std::string_view lower_name) {
  static const std::array<std::string_view, 14> kVoid = {
      "area", "base",  "br",    "col",   "embed",  "hr",   "img",
      "input", "link", "meta", "param", "source", "track", "wbr"};
  for (std::string_view v : kVoid) {
    if (v == lower_name) return true;
  }
  return false;
}

// HTML elements that are implicitly closed when a sibling of the same class
// starts (simplified HTML5 tree-construction rules).
bool ImplicitlyCloses(std::string_view open, std::string_view incoming) {
  auto any = [](std::string_view v, std::initializer_list<std::string_view> set) {
    for (std::string_view s : set) {
      if (s == v) return true;
    }
    return false;
  };
  if (open == "p" &&
      any(incoming, {"p", "div", "table", "ul", "ol", "h1", "h2", "h3", "h4", "h5",
                     "h6", "pre", "blockquote", "section", "li"})) {
    return true;
  }
  if (open == "li" && incoming == "li") return true;
  if ((open == "td" || open == "th") &&
      any(incoming, {"td", "th", "tr"})) {
    return true;
  }
  if (open == "tr" && incoming == "tr") return true;
  if ((open == "dt" || open == "dd") && any(incoming, {"dt", "dd"})) return true;
  if (open == "option" && incoming == "option") return true;
  return false;
}

class ParserImpl {
 public:
  ParserImpl(std::string_view input, const ParseOptions& options)
      : in_(input), opts_(options) {}

  Result<Document> Run() {
    open_stack_.push_back(doc_.root());
    while (pos_ < in_.size()) {
      if (in_[pos_] == '<') {
        NETMARK_RETURN_NOT_OK(ParseMarkup());
      } else {
        ParseText();
      }
    }
    if (open_stack_.size() != 1) {
      if (!opts_.html_mode) {
        return Status::ParseError("unclosed element <" +
                                  doc_.name(open_stack_.back()) + "> at end of input");
      }
      // HTML mode: silently close everything left open.
      open_stack_.resize(1);
    }
    return std::move(doc_);
  }

 private:
  Status ParseMarkup() {
    // pos_ points at '<'.
    if (pos_ + 1 >= in_.size()) {
      // Trailing lone '<': treat as text.
      AppendTextNode("<");
      ++pos_;
      return Status::OK();
    }
    char next = in_[pos_ + 1];
    if (next == '!') {
      if (in_.compare(pos_, 4, "<!--") == 0) return ParseComment();
      if (in_.compare(pos_, 9, "<![CDATA[") == 0) return ParseCData();
      return SkipDeclaration();  // <!DOCTYPE ...> and friends
    }
    if (next == '?') return ParseProcessingInstruction();
    if (next == '/') return ParseCloseTag();
    if (IsNameStartChar(next)) return ParseOpenTag();
    // Stray '<' followed by junk: tolerate as text in HTML mode.
    if (opts_.html_mode) {
      AppendTextNode("<");
      ++pos_;
      return Status::OK();
    }
    return Status::ParseError(StringPrintf("unexpected character after '<' at offset %zu",
                                           pos_));
  }

  void ParseText() {
    size_t start = pos_;
    while (pos_ < in_.size() && in_[pos_] != '<') ++pos_;
    std::string_view raw = in_.substr(start, pos_ - start);
    if (!opts_.keep_whitespace_text && TrimView(raw).empty()) return;
    AppendTextNode(DecodeEntities(raw));
  }

  void AppendTextNode(std::string text) {
    NodeId parent = open_stack_.back();
    // Merge with a preceding text node to keep trees small.
    NodeId last = doc_.last_child(parent);
    if (last != kInvalidNode && doc_.kind(last) == NodeKind::kText) {
      doc_.set_data(last, doc_.data(last) + text);
      return;
    }
    doc_.AppendChild(parent, doc_.CreateText(std::move(text)));
  }

  Status ParseComment() {
    size_t end = in_.find("-->", pos_ + 4);
    if (end == std::string_view::npos) {
      if (opts_.html_mode) {
        pos_ = in_.size();
        return Status::OK();
      }
      return Status::ParseError("unterminated comment");
    }
    if (opts_.keep_comments) {
      doc_.AppendChild(open_stack_.back(),
                       doc_.CreateComment(std::string(in_.substr(pos_ + 4, end - pos_ - 4))));
    }
    pos_ = end + 3;
    return Status::OK();
  }

  Status ParseCData() {
    size_t body = pos_ + 9;
    size_t end = in_.find("]]>", body);
    if (end == std::string_view::npos) {
      if (opts_.html_mode) {
        // Tolerate: take everything to EOF as the CDATA body.
        doc_.AppendChild(open_stack_.back(),
                         doc_.CreateCData(std::string(in_.substr(body))));
        pos_ = in_.size();
        return Status::OK();
      }
      return Status::ParseError("unterminated CDATA");
    }
    doc_.AppendChild(open_stack_.back(),
                     doc_.CreateCData(std::string(in_.substr(body, end - body))));
    pos_ = end + 3;
    return Status::OK();
  }

  Status SkipDeclaration() {
    // <!DOCTYPE ...> — may contain an internal subset in [...]
    size_t i = pos_ + 2;
    int bracket_depth = 0;
    while (i < in_.size()) {
      char c = in_[i];
      if (c == '[') ++bracket_depth;
      else if (c == ']') --bracket_depth;
      else if (c == '>' && bracket_depth <= 0) {
        pos_ = i + 1;
        return Status::OK();
      }
      ++i;
    }
    if (opts_.html_mode) {  // tolerate: drop the truncated declaration
      pos_ = in_.size();
      return Status::OK();
    }
    return Status::ParseError("unterminated <! declaration");
  }

  Status ParseProcessingInstruction() {
    size_t end = in_.find("?>", pos_ + 2);
    if (end == std::string_view::npos) {
      if (opts_.html_mode) {  // tolerate: drop the truncated PI
        pos_ = in_.size();
        return Status::OK();
      }
      return Status::ParseError("unterminated processing instruction");
    }
    std::string_view body = in_.substr(pos_ + 2, end - pos_ - 2);
    size_t name_end = 0;
    while (name_end < body.size() && IsNameChar(body[name_end])) ++name_end;
    std::string name(body.substr(0, name_end));
    std::string data = Trim(body.substr(name_end));
    // The XML declaration <?xml ...?> is metadata, not content; drop it.
    if (!EqualsIgnoreCase(name, "xml")) {
      doc_.AppendChild(open_stack_.back(),
                       doc_.CreateProcessingInstruction(std::move(name), std::move(data)));
    }
    pos_ = end + 2;
    return Status::OK();
  }

  Status ParseOpenTag() {
    size_t i = pos_ + 1;
    size_t name_start = i;
    while (i < in_.size() && IsNameChar(in_[i])) ++i;
    std::string name(in_.substr(name_start, i - name_start));
    if (opts_.html_mode) name = ToLower(name);

    // Attributes.
    std::vector<Attribute> attrs;
    bool self_closing = false;
    while (true) {
      while (i < in_.size() && std::isspace(static_cast<unsigned char>(in_[i]))) ++i;
      if (i >= in_.size()) {
        if (opts_.html_mode) {  // tolerate: drop the truncated tag
          pos_ = in_.size();
          return Status::OK();
        }
        return Status::ParseError("unterminated tag <" + name);
      }
      if (in_[i] == '>') {
        ++i;
        break;
      }
      if (in_[i] == '/' && i + 1 < in_.size() && in_[i + 1] == '>') {
        self_closing = true;
        i += 2;
        break;
      }
      if (!IsNameStartChar(in_[i])) {
        if (opts_.html_mode) {  // skip junk
          ++i;
          continue;
        }
        return Status::ParseError(
            StringPrintf("bad attribute syntax in <%s> at offset %zu", name.c_str(), i));
      }
      size_t an_start = i;
      while (i < in_.size() && IsNameChar(in_[i])) ++i;
      std::string attr_name(in_.substr(an_start, i - an_start));
      if (opts_.html_mode) attr_name = ToLower(attr_name);
      while (i < in_.size() && std::isspace(static_cast<unsigned char>(in_[i]))) ++i;
      std::string attr_value;
      if (i < in_.size() && in_[i] == '=') {
        ++i;
        while (i < in_.size() && std::isspace(static_cast<unsigned char>(in_[i]))) ++i;
        if (i < in_.size() && (in_[i] == '"' || in_[i] == '\'')) {
          char quote = in_[i];
          ++i;
          size_t v_start = i;
          while (i < in_.size() && in_[i] != quote) ++i;
          if (i >= in_.size()) {
            if (opts_.html_mode) {  // tolerate: drop the truncated tag
              pos_ = in_.size();
              return Status::OK();
            }
            return Status::ParseError("unterminated attribute value in <" + name + ">");
          }
          attr_value = DecodeEntities(in_.substr(v_start, i - v_start));
          ++i;
        } else {
          // Unquoted value (HTML tolerance; also accepted in XML mode for
          // robustness since NETMARK ingests messy data).
          size_t v_start = i;
          while (i < in_.size() && !std::isspace(static_cast<unsigned char>(in_[i])) &&
                 in_[i] != '>' && in_[i] != '/') {
            ++i;
          }
          attr_value = DecodeEntities(in_.substr(v_start, i - v_start));
        }
      }
      attrs.push_back(Attribute{std::move(attr_name), std::move(attr_value)});
    }

    if (opts_.html_mode) {
      // Implicit closes: pop while the innermost open element yields to the
      // incoming one.
      while (open_stack_.size() > 1 &&
             ImplicitlyCloses(doc_.name(open_stack_.back()), name)) {
        open_stack_.pop_back();
      }
    }

    if (open_stack_.size() > kMaxNestingDepth) {
      return Status::ParseError(StringPrintf(
          "<%s> at offset %zu nested deeper than %zu levels", name.c_str(), pos_,
          kMaxNestingDepth));
    }
    NodeId el = doc_.CreateElement(name);
    for (Attribute& a : attrs) {
      doc_.AddAttribute(el, std::move(a.name), std::move(a.value));
    }
    doc_.AppendChild(open_stack_.back(), el);

    bool is_void = opts_.html_mode && IsVoidElement(name);
    if (!self_closing && !is_void) {
      if (opts_.html_mode && (name == "script" || name == "style")) {
        // Raw-text elements: consume verbatim until the matching close tag.
        std::string close = "</" + name;
        size_t end = i;
        while (true) {
          end = FindCaseInsensitive(in_, close, end);
          if (end == std::string_view::npos) {
            end = in_.size();
            break;
          }
          size_t after = end + close.size();
          if (after >= in_.size() || in_[after] == '>' ||
              std::isspace(static_cast<unsigned char>(in_[after]))) {
            break;
          }
          ++end;
        }
        std::string_view raw = in_.substr(i, end - i);
        if (!TrimView(raw).empty()) {
          doc_.AppendChild(el, doc_.CreateText(std::string(raw)));
        }
        size_t gt = in_.find('>', end);
        i = (gt == std::string_view::npos) ? in_.size() : gt + 1;
      } else {
        open_stack_.push_back(el);
      }
    }
    pos_ = i;
    return Status::OK();
  }

  static size_t FindCaseInsensitive(std::string_view haystack, std::string_view needle,
                                    size_t from) {
    if (needle.empty() || haystack.size() < needle.size()) return std::string_view::npos;
    for (size_t i = from; i + needle.size() <= haystack.size(); ++i) {
      if (EqualsIgnoreCase(haystack.substr(i, needle.size()), needle)) return i;
    }
    return std::string_view::npos;
  }

  Status ParseCloseTag() {
    size_t i = pos_ + 2;
    size_t name_start = i;
    while (i < in_.size() && IsNameChar(in_[i])) ++i;
    std::string name(in_.substr(name_start, i - name_start));
    if (opts_.html_mode) name = ToLower(name);
    while (i < in_.size() && in_[i] != '>') ++i;
    if (i >= in_.size()) {
      if (opts_.html_mode) {  // tolerate: drop the truncated close tag
        pos_ = in_.size();
        return Status::OK();
      }
      return Status::ParseError("unterminated close tag </" + name);
    }
    ++i;

    // Find the matching open element.
    int match = -1;
    for (int d = static_cast<int>(open_stack_.size()) - 1; d >= 1; --d) {
      if (doc_.name(open_stack_[static_cast<size_t>(d)]) == name) {
        match = d;
        break;
      }
    }
    if (match < 0) {
      if (opts_.html_mode) {
        pos_ = i;  // stray close tag: ignore
        return Status::OK();
      }
      return Status::ParseError("close tag </" + name + "> with no open element");
    }
    if (!opts_.html_mode &&
        static_cast<size_t>(match) != open_stack_.size() - 1) {
      return Status::ParseError("mismatched close tag </" + name + ">; expected </" +
                                doc_.name(open_stack_.back()) + ">");
    }
    open_stack_.resize(static_cast<size_t>(match));
    pos_ = i;
    return Status::OK();
  }

  std::string_view in_;
  ParseOptions opts_;
  Document doc_;
  std::vector<NodeId> open_stack_;
  size_t pos_ = 0;
};

}  // namespace

Result<Document> Parse(std::string_view input, const ParseOptions& options) {
  return ParserImpl(input, options).Run();
}

}  // namespace netmark::xml
