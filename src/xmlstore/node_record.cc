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

namespace {

netmark::Status IntColumn(storage::RowReader& reader, int64_t* out) {
  storage::CellView cell;
  NETMARK_RETURN_NOT_OK(reader.Next(&cell));
  if (cell.type != ValueType::kInt64) {
    return netmark::Status::Corruption("XML row: integer column has wrong type");
  }
  *out = cell.i;
  return netmark::Status::OK();
}

netmark::Status RowIdColumn(storage::RowReader& reader, RowId* out) {
  int64_t packed;
  NETMARK_RETURN_NOT_OK(IntColumn(reader, &packed));
  *out = RowId::Unpack(static_cast<uint64_t>(packed));
  return netmark::Status::OK();
}

// NULL reads as "" (ToRow stores empty strings as NULL).
netmark::Status StringColumn(storage::RowReader& reader, std::string_view* out) {
  storage::CellView cell;
  NETMARK_RETURN_NOT_OK(reader.Next(&cell));
  if (cell.type == ValueType::kString) {
    *out = cell.str;
  } else if (cell.type != ValueType::kNull) {
    return netmark::Status::Corruption("XML row: string column has wrong type");
  }
  return netmark::Status::OK();
}

}  // namespace

netmark::Result<NodeView> NodeView::Decode(std::string_view bytes) {
  storage::RowReader reader(bytes);
  NETMARK_ASSIGN_OR_RETURN(uint64_t arity, reader.ReadArity());
  if (arity != 9) return netmark::Status::Corruption("XML row has wrong arity");
  NodeView v;
  int64_t type;
  NETMARK_RETURN_NOT_OK(IntColumn(reader, &v.node_id));
  NETMARK_RETURN_NOT_OK(IntColumn(reader, &v.doc_id));
  NETMARK_RETURN_NOT_OK(RowIdColumn(reader, &v.parent_rowid));
  NETMARK_RETURN_NOT_OK(IntColumn(reader, &v.parent_node_id));
  NETMARK_RETURN_NOT_OK(IntColumn(reader, &type));
  NETMARK_RETURN_NOT_OK(StringColumn(reader, &v.node_name));
  NETMARK_RETURN_NOT_OK(StringColumn(reader, &v.node_data));
  NETMARK_RETURN_NOT_OK(RowIdColumn(reader, &v.sibling_rowid));
  NETMARK_RETURN_NOT_OK(RowIdColumn(reader, &v.prev_rowid));
  NETMARK_RETURN_NOT_OK(reader.Finish());
  if (type != static_cast<int32_t>(type)) {
    return netmark::Status::Corruption("XML row has a bad NODETYPE");
  }
  NETMARK_ASSIGN_OR_RETURN(v.node_type,
                           xml::NetmarkNodeTypeFromInt(static_cast<int32_t>(type)));
  return v;
}

netmark::Result<NodeView> NodeView::Decode(storage::RecordRef record) {
  NETMARK_ASSIGN_OR_RETURN(NodeView v, Decode(record.bytes()));
  v.record_ = std::move(record);
  return v;
}

NodeRecord NodeView::ToRecord() const {
  NodeRecord r;
  r.node_id = node_id;
  r.doc_id = doc_id;
  r.parent_rowid = parent_rowid;
  r.parent_node_id = parent_node_id;
  r.node_type = node_type;
  r.node_name = std::string(node_name);
  r.node_data = std::string(node_data);
  r.sibling_rowid = sibling_rowid;
  r.prev_rowid = prev_rowid;
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
