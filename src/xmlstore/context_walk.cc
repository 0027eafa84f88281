#include "xmlstore/context_walk.h"

namespace netmark::xmlstore {

using storage::IndexKey;
using storage::RowId;
using storage::Value;

netmark::Result<RowId> FindGoverningContext(const XmlStore& store, RowId start) {
  RowId cur = start;
  // Bounded to the store's node count in principle; use a generous hop cap to
  // guard against link corruption.
  for (int hops = 0; hops < 1 << 20; ++hops) {
    NETMARK_ASSIGN_OR_RETURN(NodeView rec, store.ReadNode(cur));
    if (rec.is_context()) return cur;  // includes the case where the hit IS a heading
    if (rec.prev_rowid.valid()) {
      cur = rec.prev_rowid;
    } else if (rec.parent_rowid.valid()) {
      cur = rec.parent_rowid;
    } else {
      return storage::kInvalidRowId;  // ran off the top: no governing context
    }
  }
  return netmark::Status::Corruption("context walk did not terminate (link cycle?)");
}

netmark::Result<RowId> FindGoverningContextViaIndex(const XmlStore& store,
                                                    RowId start) {
  // Identical traversal, but each "previous sibling" / "parent" hop is
  // resolved by logical ids through secondary indexes: fetch all siblings of
  // the current node, pick the one with the largest NODEID below ours. This
  // is what a store without physical links must do.
  RowId cur = start;
  for (int hops = 0; hops < 1 << 20; ++hops) {
    NETMARK_ASSIGN_OR_RETURN(NodeView rec, store.ReadNode(cur));
    if (rec.is_context()) return cur;
    // Find the previous sibling via an index join on the parent's children.
    RowId prev = storage::kInvalidRowId;
    if (rec.parent_node_id != 0) {
      NETMARK_ASSIGN_OR_RETURN(std::vector<RowId> siblings,
                               store.NodesWithParent(rec.parent_node_id));
      int64_t best = -1;
      for (RowId sid : siblings) {
        NETMARK_ASSIGN_OR_RETURN(NodeView s, store.ReadNode(sid));
        if (s.node_id < rec.node_id && s.node_id > best) {
          best = s.node_id;
          prev = sid;
        }
      }
    }
    if (prev.valid()) {
      cur = prev;
    } else if (rec.parent_node_id != 0) {
      // Parent hop resolved logically through the (DOC_ID, NODEID) index.
      NETMARK_ASSIGN_OR_RETURN(cur,
                               store.NodeByDocAndId(rec.doc_id, rec.parent_node_id));
    } else {
      return storage::kInvalidRowId;
    }
  }
  return netmark::Status::Corruption("context walk did not terminate (link cycle?)");
}

namespace {

// The section after an already-read CONTEXT row: its heading text and, when
// the heading matches, its content run (following siblings up to, not
// including, the next CONTEXT sibling) reconstructed into the body.
netmark::Result<std::optional<Section>> ReadSection(
    const XmlStore& store, RowId context, const NodeView& head,
    const textindex::TextQuery* heading_query) {
  Section section;
  section.context = context;
  section.context_node_id = head.node_id;
  section.doc_id = head.doc_id;
  NETMARK_ASSIGN_OR_RETURN(section.heading, store.SubtreeText(head));
  if (heading_query != nullptr && !textindex::Matches(*heading_query, section.heading)) {
    return std::optional<Section>();
  }
  RowId cur = head.sibling_rowid;
  for (int hops = 0; cur.valid() && hops < 1 << 20; ++hops) {
    NETMARK_ASSIGN_OR_RETURN(NodeView rec, store.ReadNode(cur));
    if (rec.is_context()) break;  // next section begins
    NETMARK_RETURN_NOT_OK(
        store.ReconstructSubtree(rec, &section.body, section.body.root()));
    cur = rec.sibling_rowid;
  }
  return std::optional<Section>(std::move(section));
}

}  // namespace

netmark::Result<std::optional<Section>> BuildSection(
    const XmlStore& store, RowId context, const textindex::TextQuery* heading_query) {
  NETMARK_ASSIGN_OR_RETURN(NodeView head, store.ReadNode(context));
  if (!head.is_context()) {
    return netmark::Status::InvalidArgument("BuildSection requires a CONTEXT node");
  }
  auto section = ReadSection(store, context, head, heading_query);
  if (!section.ok() && section.status().IsDataLoss()) {
    store.NoteQuarantinedDoc(head.doc_id);
  }
  return section;
}

}  // namespace netmark::xmlstore
