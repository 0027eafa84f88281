// Result composition: assemble query hits into a new XML document (the
// "composing new documents with sections from other multiple documents"
// capability, paper §1 / Fig 6).

#ifndef NETMARK_QUERY_COMPOSE_H_
#define NETMARK_QUERY_COMPOSE_H_

#include <vector>

#include "common/result.h"
#include "query/executor.h"
#include "query/result_set.h"
#include "xml/dom.h"

namespace netmark::query {

/// \brief Builds the answer set from the executor's hits: a section hit gets
/// its heading and body, a content-only hit its snippet, an XPath hit its
/// selected node and text. The bodies are the DOMs the executor read, so
/// composing reads no store. `quarantined_skips` (the executor's
/// Stats::quarantined_skips) becomes the set's quarantined count, so a
/// partial answer is never reported as complete.
ResultSet ComposeResultSet(const XdbQuery& query, const std::vector<QueryHit>& hits,
                           size_t quarantined_skips = 0);

/// \brief Encode(ComposeResultSet(query, hits)): the `<results>` document
/// /xdb answers with. `store` is unused; it stays for the end-to-end
/// benchmark, which calls this signature.
netmark::Result<xml::Document> ComposeResults(const xmlstore::XmlStore& store,
                                              const XdbQuery& query,
                                              const std::vector<QueryHit>& hits);

}  // namespace netmark::query

#endif  // NETMARK_QUERY_COMPOSE_H_
