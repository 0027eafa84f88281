#include "query/compose.h"

#include "xml/parser.h"
#include "xmlstore/context_walk.h"

namespace netmark::query {

namespace {

/// A section's body: each node of the content run after the `context`
/// heading, reconstructed in document order into one document.
netmark::Result<Body> SectionBody(const xmlstore::XmlStore& store,
                                  storage::RowId context) {
  NETMARK_ASSIGN_OR_RETURN(std::vector<storage::RowId> run,
                           xmlstore::SectionContent(store, context));
  auto doc = std::make_shared<xml::Document>();
  for (storage::RowId node : run) {
    NETMARK_RETURN_NOT_OK(store.ReconstructSubtree(node, doc.get(), doc->root()));
  }
  return Body{{Fragment::Whole(std::move(doc))}};
}

}  // namespace

netmark::Result<ResultSet> ComposeResultSet(const xmlstore::XmlStore& store,
                                            const XdbQuery& query,
                                            const std::vector<QueryHit>& hits,
                                            size_t quarantined_skips) {
  ResultSet set;
  set.query = query.ToQueryString();
  set.quarantined = quarantined_skips;
  set.hits.reserve(hits.size());
  for (const QueryHit& hit : hits) {
    ResultHit out;
    if (hit.context.valid()) {
      // Read the section body before emitting the hit: one whose section
      // touches a quarantined (checksum-failed) page is dropped whole —
      // never a silently truncated section — and counted.
      auto body = SectionBody(store, hit.context);
      if (!body.ok()) {
        if (!body.status().IsDataLoss()) return body.status();
        ++set.quarantined;
        store.NoteQuarantinedDoc(hit.doc_id);
        continue;
      }
      out.heading = hit.heading;
      out.body = std::move(*body);
    } else {
      if (!hit.markup.empty()) {
        // XPath hit: embed the selected node (its text when unparseable).
        auto parsed = xml::ParseXml(hit.markup);
        if (!parsed.ok()) {
          parsed = xml::Document();
          parsed->AppendChild(parsed->root(), parsed->CreateText(hit.text));
        }
        out.body = Body{{Fragment::Whole(
            std::make_shared<const xml::Document>(std::move(*parsed)))}};
      }
      // Document-level hit (content-only query), or the XPath node's text:
      // the heading of the section the match sits in plus the matched text.
      if (!hit.heading.empty() || !hit.text.empty()) {
        out.snippet = Snippet{hit.heading, hit.text};
      }
    }
    out.file_name = hit.file_name;
    out.doc_id = hit.doc_id;
    set.hits.push_back(std::move(out));
  }
  return set;
}

netmark::Result<xml::Document> ComposeResults(const xmlstore::XmlStore& store,
                                              const XdbQuery& query,
                                              const std::vector<QueryHit>& hits) {
  NETMARK_ASSIGN_OR_RETURN(ResultSet set, ComposeResultSet(store, query, hits));
  return Encode(set);
}

}  // namespace netmark::query
