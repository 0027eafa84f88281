// The NETMARK "SGML parser": a tolerant XML/HTML parser.
//
// The paper's SGML parser accepts well-formed XML as well as messy HTML
// (paper §2.1.1: "decomposes the XML (or even HTML) documents into its
// constituent nodes"). In XML mode the parser is strict about tag balance;
// in HTML mode it auto-closes void elements, repairs mis-nested close tags,
// and folds tag names to lower case.

#ifndef NETMARK_XML_PARSER_H_
#define NETMARK_XML_PARSER_H_

#include <cstddef>
#include <string_view>

#include "common/result.h"
#include "xml/dom.h"

namespace netmark::xml {

/// Parsing behaviour knobs.
struct ParseOptions {
  /// HTML tolerance: case-fold tag names, auto-close void elements (<br>,
  /// <img>, ...), implicitly close <p>/<li>/<tr>/<td> on new block starts,
  /// and recover from stray close tags instead of failing.
  bool html_mode = false;
  /// Keep comment nodes (dropped by default; NETMARK stores data, not
  /// markup commentary).
  bool keep_comments = false;
  /// Keep whitespace-only text nodes (dropped by default).
  bool keep_whitespace_text = false;
};

/// Element nesting the parser accepts, in XML and HTML mode alike. The DOM's
/// copy, serializer and the decoders above it recurse once per level, and
/// the nesting of untrusted bytes is their sender's choice.
inline constexpr size_t kMaxNestingDepth = 1024;

/// \brief Parses markup into a Document.
///
/// Errors are returned (never thrown): unbalanced tags in XML mode, malformed
/// tag syntax, unterminated comments/CDATA, and elements nested deeper than
/// kMaxNestingDepth in either mode.
Result<Document> Parse(std::string_view input, const ParseOptions& options = {});

/// \brief Convenience: strict-XML parse.
inline Result<Document> ParseXml(std::string_view input) {
  return Parse(input, ParseOptions{});
}

/// \brief Convenience: tolerant-HTML parse.
inline Result<Document> ParseHtml(std::string_view input) {
  ParseOptions opts;
  opts.html_mode = true;
  return Parse(input, opts);
}

}  // namespace netmark::xml

#endif  // NETMARK_XML_PARSER_H_
