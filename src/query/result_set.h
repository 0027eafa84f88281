// The one result contract (docs/XDB_QUERY.md, "Result format"): plain /xdb,
// federated /xdb and every federated source answer with a ResultSet, which
// has one `<results>` encoding and one decoder. The router merges sets and
// hands one document to XSLT (paper §2.1.5), so a hit reads the same
// whichever path carried it.

#ifndef NETMARK_QUERY_RESULT_SET_H_
#define NETMARK_QUERY_RESULT_SET_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "observability/trace.h"
#include "textindex/text_query.h"
#include "xml/dom.h"

namespace netmark::query {

/// Terminal state of one source within one federated query.
enum class SourceState {
  kOk,           ///< answered in full (possibly after retries)
  kPartial,      ///< answered, but its answer says sections are missing
  kTimedOut,     ///< deadline expired before an answer arrived
  kFailed,       ///< all attempts failed (or a non-retryable error)
  kBreakerOpen,  ///< skipped without a call: breaker is open
};

/// \brief Wire name of a state ("ok", "partial", "timed-out", ...).
std::string_view SourceStateToString(SourceState state);

/// How one source fared in one query — the partial-result annotation.
struct SourceOutcome {
  std::string source;
  SourceState state = SourceState::kOk;
  int attempts = 0;             ///< calls issued (0 when breaker-skipped)
  int64_t latency_micros = 0;   ///< wall time spent on this source
  size_t hits = 0;              ///< hits this source contributed
  std::string error;            ///< last error when the source failed

  bool operator==(const SourceOutcome&) const = default;
};

/// \brief A run of sibling nodes in a shared, immutable document: `first`
/// up to, not including, `end` (kInvalidNode: through the last sibling). A
/// source hands out nodes it already holds; Encode is their only copy.
struct Fragment {
  std::shared_ptr<const xml::Document> doc;
  xml::NodeId first = xml::kInvalidNode;
  xml::NodeId end = xml::kInvalidNode;

  /// Every child of `doc`'s root: the whole document.
  static Fragment Whole(std::shared_ptr<const xml::Document> doc);
};

/// A hit's body: the node runs embedded, in order, in `<content>`.
struct Body {
  std::vector<Fragment> fragments;

  /// The runs' text: xml::Document::JoinedText of each run, the non-empty
  /// ones joined by single spaces — the one section-body text rule.
  std::string Text() const;
  /// The nodes serialized back to back.
  std::string Markup() const;
  friend bool operator==(const Body& a, const Body& b) {
    return a.Markup() == b.Markup();
  }
};

/// \brief The section rule for a content key: it must match the heading and
/// the body text (Body::Text) joined by a space. The executor's content
/// re-match and the router's augmentation both apply it.
bool SectionMatches(const textindex::TextQuery& content, std::string_view heading,
                    const Body& body);

/// A matched text slice and the heading of the section it sits in.
struct Snippet {
  std::string section;
  std::string text;

  bool operator==(const Snippet&) const = default;
};

/// \brief One hit. Which parts are present is the hit's kind:
///   - section hit: heading + body;
///   - content-only (document) hit: snippet;
///   - XPath hit: body (the selected node) + snippet;
///   - a content-only source's document: body (the whole document).
struct ResultHit {
  std::string file_name;
  int64_t doc_id = 0;             ///< source-local document id
  std::string source;             ///< source name; empty on plain /xdb
  std::optional<std::string> heading;
  std::optional<Body> body;
  std::optional<Snippet> snippet;

  bool operator==(const ResultHit&) const = default;
};

/// \brief An answer and what it is missing: `quarantined` counts sections
/// and nodes lost to checksum-failed pages, `sources` is a federated
/// answer's per-source report (empty on plain /xdb).
struct ResultSet {
  std::string query;  ///< canonical query string the set answers
  std::vector<ResultHit> hits;
  size_t quarantined = 0;
  std::vector<SourceOutcome> sources;

  /// True when nothing was lost: no quarantined reads, every source ok.
  bool complete() const;
  bool operator==(const ResultSet&) const = default;
};

/// \brief The one `<results>` encoder: `<context>` when a hit has a heading,
/// `<content>` when it has a body, `<snippet section=…>` when it has a
/// snippet; `quarantined` and `<sources>` when the set has them.
xml::Document Encode(const ResultSet& set);

/// \brief The one decoder; it reads everything Encode writes. Malformed XML
/// (including nesting deeper than xml::kMaxNestingDepth), a root other than
/// `<results>`, a malformed `docid`, `count`, `quarantined`, `complete` or
/// source attribute, or a `count`/`complete` that disagrees with the decoded
/// set is a ParseError. A `<trace>` block is decoded into `remote_spans`
/// (when non-null) for Trace::Graft: ids index the vector, timestamps are
/// duration-only (another host's clock).
netmark::Result<ResultSet> Decode(
    std::string_view body,
    std::vector<observability::SpanData>* remote_spans = nullptr);

/// \brief Appends the `trace=1` `<trace>` element (nested `<span>` tree with
/// `us` wall-time, `ok` outcome and `<annotation>` children) under `parent`.
void AppendTraceElement(xml::Document& doc, xml::NodeId parent,
                        const std::vector<observability::SpanData>& spans);

}  // namespace netmark::query

#endif  // NETMARK_QUERY_RESULT_SET_H_
