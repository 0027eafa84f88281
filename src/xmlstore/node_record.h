// NodeRecord: one row of the XML table (paper Fig 5).
//
// Columns follow the published NETMARK-generated schema — NODEID (PK),
// DOC_ID (FK), PARENTROWID, PARENTNODEID, NODETYPE, NODENAME, NODEDATA,
// SIBLINGID — plus one addition, PREVROWID (previous sibling). The paper's
// walk "up the tree structure via its parent or sibling node until the first
// context is found" (§2.1.4) needs a *preceding*-sibling hop, and the
// published column list only identifies a single SIBLINGID; we keep SIBLINGID
// as the forward link (used to walk a section's content) and add the backward
// link explicitly. See DESIGN.md.
//
// Two shapes of the same row: NodeView reads a row in place — integer
// columns decoded, NODENAME/NODEDATA as views into the record — and is what
// every walk hop uses. NodeRecord owns its strings; it is what the writer
// encodes (ToRow) and what readers build (NodeView::ToRecord) only where a
// row must outlive its record: the subtree stacks and reconstruction.

#ifndef NETMARK_XMLSTORE_NODE_RECORD_H_
#define NETMARK_XMLSTORE_NODE_RECORD_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "storage/heap_file.h"
#include "storage/row_id.h"
#include "storage/schema.h"
#include "xml/node_type_config.h"

namespace netmark::xmlstore {

// Sentinel node names for DOM kinds the Fig-5 schema has no column for
// (shared between document flattening and reconstruction).
inline constexpr std::string_view kCDataName = "#cdata";
inline constexpr std::string_view kCommentName = "#comment";
inline constexpr char kPiPrefix = '?';

/// \brief Decoded XML-table row.
struct NodeRecord {
  int64_t node_id = 0;
  int64_t doc_id = 0;
  storage::RowId parent_rowid;   ///< physical address of the parent node row
  int64_t parent_node_id = -1;   ///< logical id of the parent (for index joins)
  xml::NetmarkNodeType node_type = xml::NetmarkNodeType::kElement;
  std::string node_name;         ///< element/PI name ("" for text)
  std::string node_data;         ///< text payload; attributes blob for elements
  storage::RowId sibling_rowid;  ///< next sibling (forward walk over content)
  storage::RowId prev_rowid;     ///< previous sibling (upward context walk)

  /// Schema of the XML table.
  static storage::TableSchema Schema();
  /// Column order constants.
  enum Column : size_t {
    kNodeId = 0,
    kDocId = 1,
    kParentRowId = 2,
    kParentNodeId = 3,
    kNodeType = 4,
    kNodeName = 5,
    kNodeData = 6,
    kSiblingId = 7,
    kPrevRowId = 8,
  };

  storage::Row ToRow() const;

  bool is_context() const { return node_type == xml::NetmarkNodeType::kContext; }
  bool is_text() const { return node_type == xml::NetmarkNodeType::kText; }
};

/// \brief An XML-table row decoded in place: the fields of NodeRecord, with
/// NODENAME and NODEDATA as views that stay valid while the NodeView lives
/// (it holds the record it was decoded from). Movable, not copyable.
class NodeView {
 public:
  /// Decodes a row image (EncodeRow of NodeRecord::ToRow). The string
  /// fields alias `bytes`, which must outlive the view. Malformed bytes —
  /// truncated, wrong arity, wrong column types, an unknown NODETYPE —
  /// yield Corruption.
  static netmark::Result<NodeView> Decode(std::string_view bytes);
  /// Decodes a record read from the XML table; the view keeps it alive.
  static netmark::Result<NodeView> Decode(storage::RecordRef record);

  int64_t node_id = 0;
  int64_t doc_id = 0;
  storage::RowId parent_rowid;
  int64_t parent_node_id = -1;
  xml::NetmarkNodeType node_type = xml::NetmarkNodeType::kElement;
  std::string_view node_name;
  std::string_view node_data;
  storage::RowId sibling_rowid;
  storage::RowId prev_rowid;

  bool is_context() const { return node_type == xml::NetmarkNodeType::kContext; }
  bool is_text() const { return node_type == xml::NetmarkNodeType::kText; }

  /// An owning copy, for rows kept beyond the view.
  NodeRecord ToRecord() const;

 private:
  storage::RecordRef record_;
};

/// \brief Decoded DOC-table row (paper Fig 5: FILE_NAME, FILE_DATE,
/// FILE_SIZE, DOC_ID), plus NODE_COUNT — the number of XML rows the document
/// was stored with. Reconstruction compares against it so rows silently
/// absent from a rebuilt index (their page failed its checksum and was
/// quarantined) surface as detected data loss, never as a truncated
/// document.
struct DocRecord {
  int64_t doc_id = 0;
  std::string file_name;
  int64_t file_date = 0;  ///< seconds since epoch
  int64_t file_size = 0;  ///< bytes of the original source file
  int64_t node_count = 0;  ///< XML rows stored for this doc

  static storage::TableSchema Schema();
  enum Column : size_t {
    kDocId = 0,
    kFileName = 1,
    kFileDate = 2,
    kFileSize = 3,
    kNodeCount = 4,
  };

  storage::Row ToRow() const;
  static netmark::Result<DocRecord> FromRow(const storage::Row& row);
};

}  // namespace netmark::xmlstore

#endif  // NETMARK_XMLSTORE_NODE_RECORD_H_
