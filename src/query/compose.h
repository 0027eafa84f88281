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
/// its heading and reconstructed body, a content-only hit its snippet, an
/// XPath hit its selected node and text. A section whose body sits on a
/// quarantined page is dropped and counted; `quarantined_skips` (the
/// executor's Stats::quarantined_skips) is added to that count, so a partial
/// answer is never reported as complete.
netmark::Result<ResultSet> ComposeResultSet(const xmlstore::XmlStore& store,
                                            const XdbQuery& query,
                                            const std::vector<QueryHit>& hits,
                                            size_t quarantined_skips = 0);

/// \brief Encode(ComposeResultSet(store, query, hits)): the `<results>`
/// document /xdb answers with.
netmark::Result<xml::Document> ComposeResults(const xmlstore::XmlStore& store,
                                              const XdbQuery& query,
                                              const std::vector<QueryHit>& hits);

}  // namespace netmark::query

#endif  // NETMARK_QUERY_COMPOSE_H_
