#include "storage/schema.h"

#include <gtest/gtest.h>

namespace netmark::storage {
namespace {

TableSchema MakeSchema() {
  return TableSchema("T", {
                              ColumnSchema{"id", ValueType::kInt64, false},
                              ColumnSchema{"name", ValueType::kString, true},
                              ColumnSchema{"score", ValueType::kDouble, true},
                          });
}

TEST(SchemaTest, ColumnIndexLookup) {
  TableSchema s = MakeSchema();
  EXPECT_EQ(*s.ColumnIndex("id"), 0u);
  EXPECT_EQ(*s.ColumnIndex("score"), 2u);
  EXPECT_TRUE(s.ColumnIndex("missing").status().IsNotFound());
}

TEST(SchemaTest, ValidateAcceptsConformingRows) {
  TableSchema s = MakeSchema();
  EXPECT_TRUE(s.Validate({Value::Int(1), Value::Str("a"), Value::Real(0.5)}).ok());
  EXPECT_TRUE(s.Validate({Value::Int(1), Value::Null(), Value::Null()}).ok());
}

TEST(SchemaTest, ValidateRejectsArityMismatch) {
  TableSchema s = MakeSchema();
  EXPECT_TRUE(s.Validate({Value::Int(1)}).IsInvalidArgument());
  EXPECT_TRUE(s.Validate({Value::Int(1), Value::Null(), Value::Null(), Value::Null()})
                  .IsInvalidArgument());
}

TEST(SchemaTest, ValidateRejectsTypeMismatch) {
  TableSchema s = MakeSchema();
  EXPECT_TRUE(
      s.Validate({Value::Str("not-int"), Value::Null(), Value::Null()}).IsInvalidArgument());
}

TEST(SchemaTest, ValidateRejectsNullInNonNullable) {
  TableSchema s = MakeSchema();
  EXPECT_TRUE(s.Validate({Value::Null(), Value::Null(), Value::Null()}).IsInvalidArgument());
}

TEST(SchemaTest, EncodeDecodeRoundTrip) {
  TableSchema s = MakeSchema();
  std::string encoded = s.Encode();
  EXPECT_EQ(encoded, "T(id:INT,name:TEXT?,score:REAL?)");
  auto decoded = TableSchema::Decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->name(), "T");
  ASSERT_EQ(decoded->num_columns(), 3u);
  EXPECT_EQ(decoded->columns()[0].name, "id");
  EXPECT_FALSE(decoded->columns()[0].nullable);
  EXPECT_TRUE(decoded->columns()[1].nullable);
  EXPECT_EQ(decoded->columns()[2].type, ValueType::kDouble);
}

TEST(SchemaTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(TableSchema::Decode("no parens").ok());
  EXPECT_FALSE(TableSchema::Decode("T(col-without-type)").ok());
  EXPECT_FALSE(TableSchema::Decode("T(a:BOGUS)").ok());
}

TEST(RowCodecTest, RoundTripsAllTypes) {
  Row row = {Value::Null(), Value::Int(-42), Value::Real(3.25),
             Value::Str("hello world"), Value::Int(0),
             Value::Str(std::string("\0binary\xFF", 8))};
  auto decoded = DecodeRow(EncodeRow(row));
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), row.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ((*decoded)[i].Compare(row[i]), 0) << "cell " << i;
  }
}

TEST(RowCodecTest, RoundTripsEmptyRowAndEmptyString) {
  auto empty = DecodeRow(EncodeRow({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());

  auto one = DecodeRow(EncodeRow({Value::Str("")}));
  ASSERT_TRUE(one.ok());
  EXPECT_EQ((*one)[0].AsStr(), "");
}

TEST(RowCodecTest, RoundTripsExtremeIntegers) {
  Row row = {Value::Int(INT64_MIN), Value::Int(INT64_MAX), Value::Int(-1)};
  auto decoded = DecodeRow(EncodeRow(row));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[0].AsInt(), INT64_MIN);
  EXPECT_EQ((*decoded)[1].AsInt(), INT64_MAX);
  EXPECT_EQ((*decoded)[2].AsInt(), -1);
}

TEST(RowCodecTest, DetectsTruncationAndTrailingBytes) {
  std::string bytes = EncodeRow({Value::Str("hello")});
  EXPECT_TRUE(DecodeRow(bytes.substr(0, bytes.size() - 2)).status().IsCorruption());
  EXPECT_TRUE(DecodeRow(bytes + "x").status().IsCorruption());
  EXPECT_TRUE(DecodeRow("").status().IsCorruption());
}

TEST(RowCodecTest, HugeColumnCountIsCorruptionNotAnAllocation) {
  // A varint count of 2^62 with no cells after it.
  std::string bytes("\x80\x80\x80\x80\x80\x80\x80\x80\x40", 9);
  EXPECT_TRUE(DecodeRow(bytes).status().IsCorruption());
}

TEST(RowCodecTest, LargeStringSurvives) {
  std::string big(100000, 'q');
  auto decoded = DecodeRow(EncodeRow({Value::Str(big)}));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)[0].AsStr(), big);
}

}  // namespace
}  // namespace netmark::storage
