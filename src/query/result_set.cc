#include "query/result_set.h"

#include <limits>

#include "common/string_util.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace netmark::query {

namespace {

/// Calls fn(doc, node) for every node of the body, in order.
template <typename Fn>
void ForEachNode(const Body& body, Fn&& fn) {
  for (const Fragment& f : body.fragments) {
    for (xml::NodeId n = f.first; n != xml::kInvalidNode && n != f.end;
         n = f.doc->next_sibling(n)) {
      fn(*f.doc, n);
    }
  }
}

netmark::Status Malformed(std::string_view what) {
  return netmark::Status::ParseError("malformed <results>: " + std::string(what));
}

/// A non-negative integer attribute no larger than `max`.
netmark::Result<int64_t> Count(const xml::Document& doc, xml::NodeId el,
                               std::string_view name,
                               int64_t max = std::numeric_limits<int64_t>::max()) {
  std::string_view raw = doc.GetAttribute(el, name);
  auto value = netmark::ParseInt64(raw);
  if (!value.ok() || *value < 0 || *value > max) {
    return Malformed(std::string(name) + "=\"" + std::string(raw) + "\"");
  }
  return *value;
}

netmark::Result<SourceOutcome> DecodeSource(const xml::Document& doc,
                                            xml::NodeId el) {
  SourceOutcome out;
  out.source = std::string(doc.GetAttribute(el, "name"));
  std::string_view outcome = doc.GetAttribute(el, "outcome");
  bool known = false;
  for (SourceState state : {SourceState::kOk, SourceState::kPartial,
                            SourceState::kTimedOut, SourceState::kFailed,
                            SourceState::kBreakerOpen}) {
    if (SourceStateToString(state) == outcome) {
      out.state = state;
      known = true;
    }
  }
  if (!known) return Malformed("outcome=\"" + std::string(outcome) + "\"");
  NETMARK_ASSIGN_OR_RETURN(int64_t attempts, Count(doc, el, "attempts",
                                                   std::numeric_limits<int>::max()));
  NETMARK_ASSIGN_OR_RETURN(int64_t latency_ms,
                           Count(doc, el, "latency_ms",
                                 std::numeric_limits<int64_t>::max() / 1000));
  NETMARK_ASSIGN_OR_RETURN(int64_t hits, Count(doc, el, "hits"));
  out.attempts = static_cast<int>(attempts);
  out.latency_micros = latency_ms * 1000;
  out.hits = static_cast<size_t>(hits);
  out.error = std::string(doc.GetAttribute(el, "error"));
  return out;
}

netmark::Result<ResultHit> DecodeHit(
    const std::shared_ptr<const xml::Document>& shared, xml::NodeId el) {
  const xml::Document& doc = *shared;
  ResultHit hit;
  hit.file_name = std::string(doc.GetAttribute(el, "doc"));
  auto doc_id = netmark::ParseInt64(doc.GetAttribute(el, "docid"));
  if (!doc_id.ok()) {
    return Malformed("docid=\"" + std::string(doc.GetAttribute(el, "docid")) + "\"");
  }
  hit.doc_id = *doc_id;
  hit.source = std::string(doc.GetAttribute(el, "source"));
  if (xml::NodeId n = doc.FirstChildElement(el, "context"); n != xml::kInvalidNode) {
    hit.heading = doc.TextContent(n);
  }
  if (xml::NodeId n = doc.FirstChildElement(el, "content"); n != xml::kInvalidNode) {
    // The body stays in the decoded reply: no copy until Encode.
    hit.body = Body{{Fragment{shared, doc.first_child(n), xml::kInvalidNode}}};
  }
  if (xml::NodeId n = doc.FirstChildElement(el, "snippet"); n != xml::kInvalidNode) {
    hit.snippet = Snippet{std::string(doc.GetAttribute(n, "section")),
                          doc.TextContent(n)};
  }
  return hit;
}

/// Decodes the `<span>` children of `el` (a <trace> or a parent <span>)
/// into flat SpanData entries. Another host's timestamps come from another
/// clock, so only the `us` duration attribute is trusted: finished spans
/// decode as start=1 / end=1+us, unfinished ones keep end=0 (the render path
/// treats end==0 as open).
void CollectRemoteSpans(const xml::Document& doc, xml::NodeId el, int parent,
                        std::vector<observability::SpanData>* out) {
  for (xml::NodeId child = doc.first_child(el); child != xml::kInvalidNode;
       child = doc.next_sibling(child)) {
    if (doc.kind(child) != xml::NodeKind::kElement) continue;
    if (doc.name(child) == "annotation") {
      if (parent >= 0 && parent < static_cast<int>(out->size())) {
        (*out)[static_cast<size_t>(parent)].annotations.emplace_back(
            std::string(doc.GetAttribute(child, "key")),
            std::string(doc.GetAttribute(child, "value")));
      }
      continue;
    }
    if (doc.name(child) != "span") continue;
    const int id = static_cast<int>(out->size());
    observability::SpanData span;
    span.id = id;
    span.parent = parent;
    span.name = std::string(doc.GetAttribute(child, "name"));
    span.ok = doc.GetAttribute(child, "ok") != "false";
    span.note = std::string(doc.GetAttribute(child, "note"));
    span.remote = true;
    span.start_micros = 1;
    if (doc.GetAttribute(child, "unfinished") != "true") {
      auto us = netmark::ParseInt64(doc.GetAttribute(child, "us"));
      const bool usable =
          us.ok() && *us > 0 && *us < std::numeric_limits<int64_t>::max();
      span.end_micros = 1 + (usable ? *us : 0);
    }
    out->push_back(std::move(span));
    CollectRemoteSpans(doc, child, id, out);
  }
}

}  // namespace

std::string_view SourceStateToString(SourceState state) {
  switch (state) {
    case SourceState::kOk:
      return "ok";
    case SourceState::kPartial:
      return "partial";
    case SourceState::kTimedOut:
      return "timed-out";
    case SourceState::kFailed:
      return "failed";
    case SourceState::kBreakerOpen:
      return "breaker-open";
  }
  return "unknown";
}

Fragment Fragment::Whole(std::shared_ptr<const xml::Document> doc) {
  xml::NodeId first = doc->first_child(doc->root());
  return Fragment{std::move(doc), first, xml::kInvalidNode};
}

std::string Body::Text() const {
  std::string out;
  for (const Fragment& f : fragments) {
    std::string text = f.doc->JoinedText(f.first, f.end);
    if (text.empty()) continue;
    if (!out.empty()) out += ' ';
    out += text;
  }
  return out;
}

std::string Body::Markup() const {
  std::string out;
  ForEachNode(*this, [&out](const xml::Document& doc, xml::NodeId n) {
    out += xml::Serialize(doc, n);
  });
  return out;
}

bool SectionMatches(const textindex::TextQuery& content, std::string_view heading,
                    const Body& body) {
  std::string text(heading);
  text += ' ';
  text += body.Text();
  return textindex::Matches(content, text);
}

bool ResultSet::complete() const {
  if (quarantined > 0) return false;
  for (const SourceOutcome& s : sources) {
    if (s.state != SourceState::kOk) return false;
  }
  return true;
}

xml::Document Encode(const ResultSet& set) {
  xml::Document out;
  xml::NodeId results = out.CreateElement("results");
  out.AddAttribute(results, "query", set.query);
  out.AddAttribute(results, "count", std::to_string(set.hits.size()));
  // The caller always learns what it did NOT get: sections lost to disk
  // corruption, and every source that did not answer in full.
  out.AddAttribute(results, "complete", set.complete() ? "true" : "false");
  if (set.quarantined > 0) {
    out.AddAttribute(results, "quarantined", std::to_string(set.quarantined));
  }
  out.AppendChild(out.root(), results);

  if (!set.sources.empty()) {
    xml::NodeId sources = out.CreateElement("sources");
    out.AppendChild(results, sources);
    for (const SourceOutcome& outcome : set.sources) {
      xml::NodeId src = out.CreateElement("source");
      out.AddAttribute(src, "name", outcome.source);
      out.AddAttribute(src, "outcome", std::string(SourceStateToString(outcome.state)));
      out.AddAttribute(src, "attempts", std::to_string(outcome.attempts));
      out.AddAttribute(src, "latency_ms", std::to_string(outcome.latency_micros / 1000));
      out.AddAttribute(src, "hits", std::to_string(outcome.hits));
      if (!outcome.error.empty()) out.AddAttribute(src, "error", outcome.error);
      out.AppendChild(sources, src);
    }
  }

  for (const ResultHit& hit : set.hits) {
    xml::NodeId result = out.CreateElement("result");
    out.AddAttribute(result, "doc", hit.file_name);
    out.AddAttribute(result, "docid", std::to_string(hit.doc_id));
    if (!hit.source.empty()) out.AddAttribute(result, "source", hit.source);
    out.AppendChild(results, result);
    if (hit.heading) {
      xml::NodeId context = out.CreateElement("context");
      out.AppendChild(context, out.CreateText(*hit.heading));
      out.AppendChild(result, context);
    }
    if (hit.body) {
      xml::NodeId content = out.CreateElement("content");
      out.AppendChild(result, content);
      ForEachNode(*hit.body, [&](const xml::Document& doc, xml::NodeId n) {
        out.AppendChild(content, out.ImportSubtree(doc, n));
      });
    }
    if (hit.snippet) {
      xml::NodeId snippet = out.CreateElement("snippet");
      if (!hit.snippet->section.empty()) {
        out.AddAttribute(snippet, "section", hit.snippet->section);
      }
      if (!hit.snippet->text.empty()) {
        out.AppendChild(snippet, out.CreateText(hit.snippet->text));
      }
      out.AppendChild(result, snippet);
    }
  }
  return out;
}

netmark::Result<ResultSet> Decode(std::string_view body,
                                  std::vector<observability::SpanData>* remote_spans) {
  xml::ParseOptions options;
  options.keep_whitespace_text = true;  // a body is data: keep it verbatim
  NETMARK_ASSIGN_OR_RETURN(xml::Document parsed, xml::Parse(body, options));
  auto shared = std::make_shared<const xml::Document>(std::move(parsed));
  const xml::Document& doc = *shared;
  xml::NodeId results = doc.DocumentElement();
  if (results == xml::kInvalidNode || doc.name(results) != "results") {
    return netmark::Status::ParseError("reply is not a <results> document");
  }

  ResultSet set;
  set.query = std::string(doc.GetAttribute(results, "query"));
  if (doc.HasAttribute(results, "quarantined")) {
    NETMARK_ASSIGN_OR_RETURN(int64_t quarantined, Count(doc, results, "quarantined"));
    set.quarantined = static_cast<size_t>(quarantined);
  }
  for (xml::NodeId el = doc.first_child(results); el != xml::kInvalidNode;
       el = doc.next_sibling(el)) {
    if (doc.kind(el) != xml::NodeKind::kElement) continue;
    if (doc.name(el) == "result") {
      NETMARK_ASSIGN_OR_RETURN(ResultHit hit, DecodeHit(shared, el));
      set.hits.push_back(std::move(hit));
    } else if (doc.name(el) == "sources") {
      for (xml::NodeId src : doc.ChildElements(el)) {
        if (doc.name(src) != "source") continue;
        NETMARK_ASSIGN_OR_RETURN(SourceOutcome outcome, DecodeSource(doc, src));
        set.sources.push_back(std::move(outcome));
      }
    } else if (doc.name(el) == "trace" && remote_spans != nullptr) {
      CollectRemoteSpans(doc, el, -1, remote_spans);
    }
  }

  // The summary must agree with what was decoded: a count that does not
  // match lost or gained results on the way.
  if (doc.HasAttribute(results, "count")) {
    NETMARK_ASSIGN_OR_RETURN(int64_t count, Count(doc, results, "count"));
    if (static_cast<uint64_t>(count) != set.hits.size()) {
      return Malformed("count disagrees with the results");
    }
  }
  if (doc.HasAttribute(results, "complete")) {
    std::string_view complete = doc.GetAttribute(results, "complete");
    if ((complete != "true" && complete != "false") ||
        (complete == "true") != set.complete()) {
      return Malformed("complete=\"" + std::string(complete) +
                       "\" disagrees with the quarantined count and sources");
    }
  }
  return set;
}

void AppendTraceElement(xml::Document& doc, xml::NodeId parent,
                        const std::vector<observability::SpanData>& spans) {
  xml::NodeId trace_el = doc.CreateElement("trace");
  if (!spans.empty()) {
    doc.AddAttribute(trace_el, "total_us",
                     std::to_string(spans[0].duration_micros()));
  }
  doc.AppendChild(parent, trace_el);
  // Span ids are indices and parents always precede children, so one pass
  // rebuilds the nesting.
  std::vector<xml::NodeId> span_els(spans.size(), xml::kInvalidNode);
  for (const observability::SpanData& span : spans) {
    xml::NodeId el = doc.CreateElement("span");
    doc.AddAttribute(el, "name", span.name);
    doc.AddAttribute(el, "us", std::to_string(span.duration_micros()));
    doc.AddAttribute(el, "ok", span.ok ? "true" : "false");
    if (!span.finished()) doc.AddAttribute(el, "unfinished", "true");
    if (span.remote) doc.AddAttribute(el, "remote", "true");
    if (!span.note.empty()) doc.AddAttribute(el, "note", span.note);
    for (const auto& [key, value] : span.annotations) {
      xml::NodeId ann = doc.CreateElement("annotation");
      doc.AddAttribute(ann, "key", key);
      doc.AddAttribute(ann, "value", value);
      doc.AppendChild(el, ann);
    }
    xml::NodeId parent_el =
        (span.parent >= 0 && static_cast<size_t>(span.parent) < spans.size())
            ? span_els[span.parent]
            : trace_el;
    if (parent_el == xml::kInvalidNode) parent_el = trace_el;
    doc.AppendChild(parent_el, el);
    if (span.id >= 0 && static_cast<size_t>(span.id) < span_els.size()) {
      span_els[span.id] = el;
    }
  }
}

}  // namespace netmark::query
