#include "storage/schema.h"

#include <cstring>

#include "common/string_util.h"

namespace netmark::storage {

netmark::Result<size_t> TableSchema::ColumnIndex(std::string_view column) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == column) return i;
  }
  return netmark::Status::NotFound("no column '" + std::string(column) + "' in table " +
                                   name_);
}

netmark::Status TableSchema::Validate(const Row& row) const {
  if (row.size() != columns_.size()) {
    return netmark::Status::InvalidArgument(
        netmark::StringPrintf("row arity %zu does not match schema %s (%zu columns)",
                              row.size(), name_.c_str(), columns_.size()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Value& v = row[i];
    const ColumnSchema& c = columns_[i];
    if (v.is_null()) {
      if (!c.nullable) {
        return netmark::Status::InvalidArgument("NULL in non-nullable column " + c.name);
      }
      continue;
    }
    if (v.type() != c.type) {
      return netmark::Status::InvalidArgument(
          "type mismatch in column " + c.name + ": expected " +
          std::string(ValueTypeToString(c.type)) + ", got " +
          std::string(ValueTypeToString(v.type())));
    }
  }
  return netmark::Status::OK();
}

std::string TableSchema::Encode() const {
  std::string out = name_;
  out += '(';
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i != 0) out += ',';
    out += columns_[i].name;
    out += ':';
    out += ValueTypeToString(columns_[i].type);
    if (columns_[i].nullable) out += '?';
  }
  out += ')';
  return out;
}

netmark::Result<TableSchema> TableSchema::Decode(std::string_view text) {
  size_t open = text.find('(');
  if (open == std::string_view::npos || text.back() != ')') {
    return netmark::Status::ParseError("bad schema encoding: " + std::string(text));
  }
  std::string name(netmark::TrimView(text.substr(0, open)));
  std::string_view cols = text.substr(open + 1, text.size() - open - 2);
  std::vector<ColumnSchema> columns;
  if (!netmark::TrimView(cols).empty()) {
    for (const std::string& part : netmark::Split(cols, ',')) {
      size_t colon = part.find(':');
      if (colon == std::string::npos) {
        return netmark::Status::ParseError("bad column encoding: " + part);
      }
      ColumnSchema c;
      c.name = netmark::Trim(part.substr(0, colon));
      std::string type_str = netmark::Trim(part.substr(colon + 1));
      c.nullable = !type_str.empty() && type_str.back() == '?';
      if (c.nullable) type_str.pop_back();
      NETMARK_ASSIGN_OR_RETURN(c.type, ValueTypeFromString(type_str));
      columns.push_back(std::move(c));
    }
  }
  return TableSchema(std::move(name), std::move(columns));
}

namespace {

void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    *out += static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  *out += static_cast<char>(v);
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

}  // namespace

std::string EncodeRow(const Row& row) {
  std::string out;
  AppendVarint(&out, row.size());
  for (const Value& v : row) {
    out += static_cast<char>(v.type());
    switch (v.type()) {
      case ValueType::kNull:
        break;
      case ValueType::kInt64:
        AppendVarint(&out, ZigZag(v.AsInt()));
        break;
      case ValueType::kDouble: {
        double d = v.AsReal();
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        out.append(reinterpret_cast<const char*>(&bits), sizeof(bits));
        break;
      }
      case ValueType::kString:
        AppendVarint(&out, v.AsStr().size());
        out += v.AsStr();
        break;
    }
  }
  return out;
}

bool RowReader::ReadVarint(uint64_t* v) {
  uint64_t out = 0;
  for (int shift = 0; shift <= 63 && pos_ < bytes_.size(); shift += 7) {
    auto b = static_cast<uint8_t>(bytes_[pos_++]);
    out |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      *v = out;
      return true;
    }
  }
  return false;
}

netmark::Result<uint64_t> RowReader::ReadArity() {
  uint64_t n;
  if (!ReadVarint(&n)) {
    return netmark::Status::Corruption("truncated varint in row encoding");
  }
  return n;
}

netmark::Status RowReader::Next(CellView* cell) {
  if (pos_ >= bytes_.size()) return netmark::Status::Corruption("truncated row");
  cell->type = static_cast<ValueType>(bytes_[pos_++]);
  switch (cell->type) {
    case ValueType::kNull:
      return netmark::Status::OK();
    case ValueType::kInt64: {
      uint64_t raw;
      if (!ReadVarint(&raw)) {
        return netmark::Status::Corruption("truncated varint in row encoding");
      }
      cell->i = UnZigZag(raw);
      return netmark::Status::OK();
    }
    case ValueType::kDouble: {
      if (bytes_.size() - pos_ < sizeof(uint64_t)) {
        return netmark::Status::Corruption("truncated double in row");
      }
      std::memcpy(&cell->d, bytes_.data() + pos_, sizeof(cell->d));
      pos_ += sizeof(uint64_t);
      return netmark::Status::OK();
    }
    case ValueType::kString: {
      uint64_t len;
      if (!ReadVarint(&len)) {
        return netmark::Status::Corruption("truncated varint in row encoding");
      }
      if (len > bytes_.size() - pos_) {
        return netmark::Status::Corruption("truncated string in row");
      }
      cell->str = bytes_.substr(pos_, len);
      pos_ += len;
      return netmark::Status::OK();
    }
  }
  return netmark::Status::Corruption("unknown value tag in row");
}

netmark::Status RowReader::Finish() const {
  if (pos_ != bytes_.size()) {
    return netmark::Status::Corruption("trailing bytes after row");
  }
  return netmark::Status::OK();
}

netmark::Result<Row> DecodeRow(std::string_view bytes) {
  RowReader reader(bytes);
  NETMARK_ASSIGN_OR_RETURN(uint64_t n, reader.ReadArity());
  // Every cell takes at least its tag byte, so a larger count is corrupt
  // (and must not size the reservation).
  if (n > bytes.size()) return netmark::Status::Corruption("truncated row");
  Row row;
  row.reserve(n);
  CellView cell;
  for (uint64_t i = 0; i < n; ++i) {
    NETMARK_RETURN_NOT_OK(reader.Next(&cell));
    switch (cell.type) {
      case ValueType::kNull:
        row.push_back(Value::Null());
        break;
      case ValueType::kInt64:
        row.push_back(Value::Int(cell.i));
        break;
      case ValueType::kDouble:
        row.push_back(Value::Real(cell.d));
        break;
      case ValueType::kString:
        row.push_back(Value::Str(std::string(cell.str)));
        break;
    }
  }
  NETMARK_RETURN_NOT_OK(reader.Finish());
  return row;
}

}  // namespace netmark::storage
