#include "federation/remote_source.h"

#include "common/string_util.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace netmark::federation {

namespace {

/// Decodes the `<span>` children of `el` (a <trace> or a parent <span>)
/// into flat SpanData entries. Remote timestamps come from another clock,
/// so only the `us` duration attribute is trusted: finished spans encode as
/// start=1 / end=1+us, unfinished ones keep end=0 (the render path treats
/// end==0 as open).
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
    if (doc.GetAttribute(child, "unfinished") == "true") {
      span.start_micros = 1;
      span.end_micros = 0;
    } else {
      auto us = netmark::ParseInt64(doc.GetAttribute(child, "us"));
      span.start_micros = 1;
      span.end_micros = 1 + (us.ok() && *us > 0 ? *us : 0);
    }
    out->push_back(std::move(span));
    CollectRemoteSpans(doc, child, id, out);
  }
}

}  // namespace

netmark::Result<std::vector<FederatedHit>> ParseResultsDocument(
    std::string_view body, std::vector<observability::SpanData>* remote_spans) {
  NETMARK_ASSIGN_OR_RETURN(xml::Document doc, xml::ParseXml(body));
  xml::NodeId results = doc.DocumentElement();
  if (results == xml::kInvalidNode || doc.name(results) != "results") {
    return netmark::Status::ParseError("remote response is not a <results> document");
  }
  if (remote_spans != nullptr) {
    xml::NodeId trace_el = doc.FirstChildElement(results, "trace");
    if (trace_el != xml::kInvalidNode) {
      CollectRemoteSpans(doc, trace_el, -1, remote_spans);
    }
  }
  std::vector<FederatedHit> out;
  for (xml::NodeId result = doc.first_child(results); result != xml::kInvalidNode;
       result = doc.next_sibling(result)) {
    if (doc.kind(result) != xml::NodeKind::kElement || doc.name(result) != "result") {
      continue;
    }
    FederatedHit hit;
    hit.file_name = std::string(doc.GetAttribute(result, "doc"));
    auto doc_id = netmark::ParseInt64(doc.GetAttribute(result, "docid"));
    if (doc_id.ok()) hit.doc_id = *doc_id;
    xml::NodeId context = doc.FirstChildElement(result, "context");
    if (context != xml::kInvalidNode) hit.heading = doc.TextContent(context);
    xml::NodeId content = doc.FirstChildElement(result, "content");
    if (content != xml::kInvalidNode) {
      hit.text = doc.TextContent(content);
      std::string markup;
      for (xml::NodeId c = doc.first_child(content); c != xml::kInvalidNode;
           c = doc.next_sibling(c)) {
        markup += xml::Serialize(doc, c);
      }
      hit.markup = std::move(markup);
    }
    out.push_back(std::move(hit));
  }
  return out;
}

netmark::Result<std::vector<FederatedHit>> RemoteSource::Execute(
    const query::XdbQuery& query, const CallContext& ctx) {
  if (ctx.expired()) {
    return netmark::Status::DeadlineExceeded("remote source " + name_ +
                                             ": deadline expired before send");
  }
  // Deadline propagation: tell the remote how much budget is left so it can
  // bound its own fan-out instead of answering a query nobody is waiting for.
  query::XdbQuery pushed = query;
  // The stylesheet is the mediator's to apply (once, over the merged
  // results); a remote that applied it would answer with markup the
  // results parser cannot read.
  pushed.xslt.clear();
  if (ctx.bounded()) {
    int64_t remaining = ctx.remaining_ms();
    if (pushed.timeout_ms == 0 || remaining < pushed.timeout_ms) {
      pushed.timeout_ms = remaining > 0 ? remaining : 1;
    }
  }
  std::string path = "/xdb?" + pushed.ToQueryString();
  NETMARK_ASSIGN_OR_RETURN(std::string body, transport_->Get(path, ctx));
  std::vector<observability::SpanData> remote_spans;
  auto hits = ParseResultsDocument(
      body, ctx.trace != nullptr ? &remote_spans : nullptr);
  if (!hits.ok()) {
    return hits.status().WithContext("remote source " + name_);
  }
  if (ctx.trace != nullptr && !remote_spans.empty()) {
    // Stitch the remote subtree under this hop's span (the local source:*
    // span via ctx.span) — one coherent tree across processes.
    int grafted = ctx.trace->Graft(ctx.span, remote_spans);
    if (grafted >= 0) ctx.trace->Annotate(grafted, "remote", name_);
  }
  return hits;
}

}  // namespace netmark::federation
