#include "xmlstore/node_record.h"

namespace netmark::xmlstore {

using storage::ColumnSchema;
using storage::Row;
using storage::RowId;
using storage::TableSchema;
using storage::Value;
using storage::ValueType;

TableSchema NodeRecord::Schema() {
  return TableSchema(
      "XML", {
                 ColumnSchema{"NODEID", ValueType::kInt64, false},
                 ColumnSchema{"DOC_ID", ValueType::kInt64, false},
                 ColumnSchema{"PARENTROWID", ValueType::kInt64, false},
                 ColumnSchema{"PARENTNODEID", ValueType::kInt64, false},
                 ColumnSchema{"NODETYPE", ValueType::kInt64, false},
                 ColumnSchema{"NODENAME", ValueType::kString, true},
                 ColumnSchema{"NODEDATA", ValueType::kString, true},
                 ColumnSchema{"SIBLINGID", ValueType::kInt64, false},
                 ColumnSchema{"PREVROWID", ValueType::kInt64, false},
             });
}

Row NodeRecord::ToRow() const {
  Row row;
  row.reserve(9);
  row.push_back(Value::Int(node_id));
  row.push_back(Value::Int(doc_id));
  row.push_back(Value::Int(static_cast<int64_t>(
      parent_rowid.valid() ? parent_rowid.Pack() : RowId::kInvalidPacked)));
  row.push_back(Value::Int(parent_node_id));
  row.push_back(Value::Int(static_cast<int64_t>(node_type)));
  row.push_back(node_name.empty() ? Value::Null() : Value::Str(node_name));
  row.push_back(node_data.empty() ? Value::Null() : Value::Str(node_data));
  row.push_back(Value::Int(static_cast<int64_t>(
      sibling_rowid.valid() ? sibling_rowid.Pack() : RowId::kInvalidPacked)));
  row.push_back(Value::Int(static_cast<int64_t>(
      prev_rowid.valid() ? prev_rowid.Pack() : RowId::kInvalidPacked)));
  return row;
}

netmark::Result<NodeRecord> NodeRecord::FromRow(const Row& row) {
  if (row.size() != 9) {
    return netmark::Status::Corruption("XML row has wrong arity");
  }
  NodeRecord r;
  r.node_id = row[kNodeId].AsInt();
  r.doc_id = row[kDocId].AsInt();
  r.parent_rowid = RowId::Unpack(static_cast<uint64_t>(row[kParentRowId].AsInt()));
  r.parent_node_id = row[kParentNodeId].AsInt();
  NETMARK_ASSIGN_OR_RETURN(
      r.node_type,
      xml::NetmarkNodeTypeFromInt(static_cast<int32_t>(row[kNodeType].AsInt())));
  if (!row[kNodeName].is_null()) r.node_name = row[kNodeName].AsStr();
  if (!row[kNodeData].is_null()) r.node_data = row[kNodeData].AsStr();
  r.sibling_rowid = RowId::Unpack(static_cast<uint64_t>(row[kSiblingId].AsInt()));
  r.prev_rowid = RowId::Unpack(static_cast<uint64_t>(row[kPrevRowId].AsInt()));
  return r;
}

TableSchema DocRecord::Schema() {
  return TableSchema("DOC", {
                                ColumnSchema{"DOC_ID", ValueType::kInt64, false},
                                ColumnSchema{"FILE_NAME", ValueType::kString, false},
                                ColumnSchema{"FILE_DATE", ValueType::kInt64, false},
                                ColumnSchema{"FILE_SIZE", ValueType::kInt64, false},
                                ColumnSchema{"NODE_COUNT", ValueType::kInt64, false},
                            });
}

Row DocRecord::ToRow() const {
  Row row;
  row.reserve(5);
  row.push_back(Value::Int(doc_id));
  row.push_back(Value::Str(file_name));
  row.push_back(Value::Int(file_date));
  row.push_back(Value::Int(file_size));
  row.push_back(Value::Int(node_count));
  return row;
}

netmark::Result<DocRecord> DocRecord::FromRow(const Row& row) {
  if (row.size() != 5) {
    return netmark::Status::Corruption("DOC row has wrong arity");
  }
  DocRecord r;
  r.doc_id = row[kDocId].AsInt();
  r.file_name = row[kFileName].AsStr();
  r.file_date = row[kFileDate].AsInt();
  r.file_size = row[kFileSize].AsInt();
  r.node_count = row[kNodeCount].AsInt();
  return r;
}

}  // namespace netmark::xmlstore
