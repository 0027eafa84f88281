// Context walks (paper §2.1.4, "Processing Queries Internally").
//
// "The processing of the node involves traversing up the tree structure via
// its parent or sibling node until the first context is found. ... Once a
// particular CONTEXT is found, traversing back down the tree structure via
// the sibling node retrieves the corresponding content text."
//
// The upward walk hops previous-sibling links, falling back to the parent
// link when a node is its parent's first child, and stops at the first
// CONTEXT-typed node — the section heading governing the start node. The
// downward walk then follows forward-sibling links from the heading,
// collecting content until the next CONTEXT sibling (the next section) or
// the end of the sibling run. BuildSection reads the heading row once,
// builds the heading text from it and, when a heading query is given,
// matches it before walking the content run, so a rejected candidate costs
// no body reads. A kept section's run is read once: each hop's row is
// reconstructed, subtree and all, into the section's body document, and
// every later reader (the content re-match, the result cache, composition)
// uses that DOM. federation::ExtractSections finds the same run by sibling
// links in a DOM; both give the body text by xml::Document::JoinedText over
// the run.
//
// Every hop is one physical RowId fetch — the paper's Oracle-rowid trick —
// decoded in place (XmlStore::ReadNode / NodeView): one page fetch, no
// string copies. FindGoverningContextViaIndex is the ablation twin that
// does the same walk with logical-id index joins instead
// (bench_ablation_rowid).

#ifndef NETMARK_XMLSTORE_CONTEXT_WALK_H_
#define NETMARK_XMLSTORE_CONTEXT_WALK_H_

#include <optional>
#include <string>

#include "common/result.h"
#include "textindex/text_query.h"
#include "xml/dom.h"
#include "xmlstore/xml_store.h"

namespace netmark::xmlstore {

/// A located section: the CONTEXT node plus its body.
struct Section {
  storage::RowId context;                  ///< the heading node
  int64_t context_node_id = 0;             ///< the heading's NODEID
  std::string heading;                     ///< heading text
  /// The content run, reconstructed: the root's children are the heading's
  /// following siblings up to (not including) the next CONTEXT sibling.
  xml::Document body;
  int64_t doc_id = 0;
};

/// \brief Nearest enclosing/preceding CONTEXT node of `start`, or invalid
/// RowId when the node precedes any heading. Pure RowId-link hops.
netmark::Result<storage::RowId> FindGoverningContext(const XmlStore& store,
                                                     storage::RowId start);

/// \brief Same result computed with PARENTNODEID index joins instead of
/// physical links (ablation baseline; see DESIGN.md Ablation A).
netmark::Result<storage::RowId> FindGoverningContextViaIndex(const XmlStore& store,
                                                             storage::RowId start);

/// \brief Materializes the section headed by `context`: heading text, body
/// and document. When `heading_query` is given and the heading does not
/// match it, returns nullopt without walking the content run. A node that
/// is not CONTEXT-typed is an InvalidArgument; a DataLoss on any row after
/// the heading's notes the document as quarantined (NoteQuarantinedDoc).
netmark::Result<std::optional<Section>> BuildSection(
    const XmlStore& store, storage::RowId context,
    const textindex::TextQuery* heading_query = nullptr);

}  // namespace netmark::xmlstore

#endif  // NETMARK_XMLSTORE_CONTEXT_WALK_H_
