// Table schemas and row encoding.

#ifndef NETMARK_STORAGE_SCHEMA_H_
#define NETMARK_STORAGE_SCHEMA_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "storage/value.h"

namespace netmark::storage {

/// One column definition.
struct ColumnSchema {
  std::string name;
  ValueType type = ValueType::kString;
  bool nullable = true;
};

/// A row is simply a vector of cell values, positionally matching a schema.
using Row = std::vector<Value>;

/// \brief Ordered column list for a table.
class TableSchema {
 public:
  TableSchema() = default;
  TableSchema(std::string table_name, std::vector<ColumnSchema> columns)
      : name_(std::move(table_name)), columns_(std::move(columns)) {}

  const std::string& name() const { return name_; }
  const std::vector<ColumnSchema>& columns() const { return columns_; }
  size_t num_columns() const { return columns_.size(); }

  /// Index of a column by name, or NotFound.
  netmark::Result<size_t> ColumnIndex(std::string_view column) const;

  /// Checks a row against the schema (arity, types, nullability).
  netmark::Status Validate(const Row& row) const;

  /// One-line textual form for the catalog file:
  ///   name(col:TYPE[?],col:TYPE[?],...)   ('?' marks nullable)
  std::string Encode() const;
  static netmark::Result<TableSchema> Decode(std::string_view text);

 private:
  std::string name_;
  std::vector<ColumnSchema> columns_;
};

/// \brief Serializes a row to bytes (self-delimiting; independent of schema).
std::string EncodeRow(const Row& row);
/// \brief Decodes a row previously produced by EncodeRow.
netmark::Result<Row> DecodeRow(std::string_view bytes);

/// \brief One cell of an encoded row, decoded in place. `str` views the
/// encoded bytes; only the member matching `type` is set.
struct CellView {
  ValueType type = ValueType::kNull;
  int64_t i = 0;
  double d = 0;
  std::string_view str;
};

/// \brief Sequential reader over EncodeRow bytes: the column count, then one
/// cell per Next(). It is the only row decoder — DecodeRow builds Values from
/// it and the XML store's NodeView reads node rows with it in place. Every
/// read is bounds-checked; malformed bytes yield Corruption.
class RowReader {
 public:
  explicit RowReader(std::string_view bytes) : bytes_(bytes) {}

  /// The leading column count. Call once, before the first Next().
  netmark::Result<uint64_t> ReadArity();
  /// Decodes the next cell into `*cell`.
  netmark::Status Next(CellView* cell);
  /// Corruption unless every byte has been consumed.
  netmark::Status Finish() const;

 private:
  bool ReadVarint(uint64_t* v);

  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace netmark::storage

#endif  // NETMARK_STORAGE_SCHEMA_H_
