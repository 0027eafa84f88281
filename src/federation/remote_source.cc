#include "federation/remote_source.h"

namespace netmark::federation {

netmark::Result<query::ResultSet> RemoteSource::Execute(
    const query::XdbQuery& query, const CallContext& ctx) {
  if (ctx.expired()) {
    return netmark::Status::DeadlineExceeded("remote source " + name_ +
                                             ": deadline expired before send");
  }
  // Deadline propagation: tell the remote how much budget is left so it can
  // bound its own fan-out instead of answering a query nobody is waiting for.
  query::XdbQuery pushed = query;
  // The stylesheet is the mediator's to apply (once, over the merged
  // results); a remote that applied it would answer with markup Decode
  // cannot read.
  pushed.xslt.clear();
  // A content-only source answers as ContentOnlySource does: each matching
  // document whole in the body, so the router can extract its sections. The
  // remote selects the document element, pre-selected by the content key.
  const bool content_only = !capabilities_.context_search && pushed.xpath.empty();
  if (content_only) pushed.xpath = "/*";
  if (ctx.bounded()) {
    int64_t remaining = ctx.remaining_ms();
    if (pushed.timeout_ms == 0 || remaining < pushed.timeout_ms) {
      pushed.timeout_ms = remaining > 0 ? remaining : 1;
    }
  }
  std::string path = "/xdb?" + pushed.ToQueryString();
  NETMARK_ASSIGN_OR_RETURN(std::string body, transport_->Get(path, ctx));
  std::vector<observability::SpanData> remote_spans;
  auto set = query::Decode(body, ctx.trace != nullptr ? &remote_spans : nullptr);
  if (!set.ok()) {
    return set.status().WithContext("remote source " + name_);
  }
  if (content_only) {
    for (query::ResultHit& hit : set->hits) hit.snippet.reset();
  }
  if (ctx.trace != nullptr && !remote_spans.empty()) {
    // Stitch the remote subtree under this hop's span (the local source:*
    // span via ctx.span) — one coherent tree across processes.
    int grafted = ctx.trace->Graft(ctx.span, remote_spans);
    if (grafted >= 0) ctx.trace->Annotate(grafted, "remote", name_);
  }
  return set;
}

}  // namespace netmark::federation
