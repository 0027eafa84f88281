#include "query/compose.h"

namespace netmark::query {

ResultSet ComposeResultSet(const XdbQuery& query, const std::vector<QueryHit>& hits,
                           size_t quarantined_skips) {
  ResultSet set;
  set.query = query.ToQueryString();
  set.quarantined = quarantined_skips;
  set.hits.reserve(hits.size());
  for (const QueryHit& hit : hits) {
    ResultHit out;
    out.body = hit.body;
    if (hit.context.valid()) {
      out.heading = hit.heading;
    } else if (!hit.heading.empty() || !hit.text.empty()) {
      // Document-level hit (content-only query), or the XPath node's text:
      // the heading of the section the match sits in plus the matched text.
      out.snippet = Snippet{hit.heading, hit.text};
    }
    out.file_name = hit.file_name;
    out.doc_id = hit.doc_id;
    set.hits.push_back(std::move(out));
  }
  return set;
}

netmark::Result<xml::Document> ComposeResults(const xmlstore::XmlStore& /*store*/,
                                              const XdbQuery& query,
                                              const std::vector<QueryHit>& hits) {
  return Encode(ComposeResultSet(query, hits));
}

}  // namespace netmark::query
