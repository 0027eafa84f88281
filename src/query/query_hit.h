// QueryHit: the result unit every XDB read-path component exchanges.
//
// Lives in its own header so the result cache can speak in hits without
// pulling in the executor (and vice versa).

#ifndef NETMARK_QUERY_QUERY_HIT_H_
#define NETMARK_QUERY_QUERY_HIT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "query/result_set.h"
#include "storage/row_id.h"

namespace netmark::query {

/// One query hit. Context/combined queries produce one hit per matched
/// section; content-only queries one hit per matched document (with an
/// invalid context RowId); XPath queries one hit per selected node.
struct QueryHit {
  int64_t doc_id = 0;
  std::string file_name;
  storage::RowId context;  ///< heading node; invalid for document-level hits
  std::string heading;     ///< section heading, or the snippet's section
  /// A section's content run as the executor reconstructed it, or an XPath
  /// node copied into a document of its own. Immutable and shared: a cached
  /// answer hands the same documents to every reader, and composing reads
  /// no store.
  std::optional<Body> body;
  std::string text;        ///< snippet text (content-only and XPath hits)
  /// Relevance score for content searches: matching nodes count 1 each,
  /// doubled when the match sits inside INTENSE (emphasis) markup — the use
  /// NETMARK's INTENSE node type exists for. Document-level hits are ordered
  /// by descending score, then doc id.
  double score = 0;

  /// Struct, string capacities and body documents (xml::Document::
  /// ApproxBytes) — the unit of the result cache's byte accounting.
  size_t ApproxBytes() const {
    size_t bytes = sizeof(QueryHit) + file_name.capacity() + heading.capacity() +
                   text.capacity();
    if (body) {
      bytes += body->fragments.capacity() * sizeof(Fragment);
      for (const Fragment& f : body->fragments) bytes += f.doc->ApproxBytes();
    }
    return bytes;
  }
};

}  // namespace netmark::query

#endif  // NETMARK_QUERY_QUERY_HIT_H_
