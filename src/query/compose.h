// Result composition: assemble query hits into a new XML document (the
// "composing new documents with sections from other multiple documents"
// capability, paper §1 / Fig 6).

#ifndef NETMARK_QUERY_COMPOSE_H_
#define NETMARK_QUERY_COMPOSE_H_

#include <vector>

#include "common/result.h"
#include "query/executor.h"
#include "xml/dom.h"

namespace netmark::query {

/// \brief The markup of a section's body: each node of the content run after
/// the `context` heading, reconstructed in document order. `/xdb` embeds it
/// in `<content>` and the local databank source ships it, so both answer
/// with the same section. On DataLoss (a quarantined page) the caller drops
/// the hit whole and notes its document — never a truncated section.
netmark::Result<std::vector<xml::Document>> SectionMarkup(
    const xmlstore::XmlStore& store, storage::RowId context);

/// \brief Builds the result document:
///
///   <results query="...">
///     <result doc="file" docid="1">
///       <context>Heading</context>
///       <content> ...section markup... </content>
///     </result>
///     ...
///   </results>
netmark::Result<xml::Document> ComposeResults(const xmlstore::XmlStore& store,
                                              const XdbQuery& query,
                                              const std::vector<QueryHit>& hits);

}  // namespace netmark::query

#endif  // NETMARK_QUERY_COMPOSE_H_
