#include "storage/database.h"

#include <gtest/gtest.h>

#include "common/temp_dir.h"

namespace netmark::storage {
namespace {

TableSchema DocsSchema() {
  return TableSchema("docs", {
                                 ColumnSchema{"id", ValueType::kInt64, false},
                                 ColumnSchema{"title", ValueType::kString, false},
                             });
}

TEST(DatabaseTest, CreateAndGetTable) {
  auto dir = TempDir::Make("dbtest");
  ASSERT_TRUE(dir.ok());
  auto db = Database::Open(dir->str());
  ASSERT_TRUE(db.ok());
  auto table = (*db)->CreateTable(DocsSchema());
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*db)->HasTable("docs"));
  EXPECT_TRUE((*db)->GetTable("docs").ok());
  EXPECT_TRUE((*db)->GetTable("nope").status().IsNotFound());
  EXPECT_TRUE((*db)->CreateTable(DocsSchema()).status().IsAlreadyExists());
}

TEST(DatabaseTest, DdlCounterTracksCreateStatements) {
  auto dir = TempDir::Make("dbtest");
  ASSERT_TRUE(dir.ok());
  auto db = Database::Open(dir->str());
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->ddl_statements(), 0u);
  ASSERT_TRUE((*db)->CreateTable(DocsSchema()).ok());
  EXPECT_EQ((*db)->ddl_statements(), 1u);
  ASSERT_TRUE((*db)->CreateIndex("docs", "by_id", {"id"}).ok());
  EXPECT_EQ((*db)->ddl_statements(), 2u);
}

TEST(DatabaseTest, PersistsTablesRowsAndIndexesAcrossReopen) {
  auto dir = TempDir::Make("dbtest");
  ASSERT_TRUE(dir.ok());
  RowId saved;
  {
    auto db = Database::Open(dir->str());
    ASSERT_TRUE(db.ok());
    auto table = (*db)->CreateTable(DocsSchema());
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*db)->CreateIndex("docs", "by_title", {"title"}).ok());
    auto id = (*table)->Insert({Value::Int(1), Value::Str("IBPD budget")});
    ASSERT_TRUE(id.ok());
    saved = *id;
    // Commit point: the insert becomes the latest published version.
    (*db)->PublishVersions();
    auto row = (*table)->Get(saved);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((*row)[1].AsStr(), "IBPD budget");
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  {
    auto db = Database::Open(dir->str());
    ASSERT_TRUE(db.ok());
    EXPECT_EQ((*db)->ddl_statements(), 2u);  // counter survives
    auto table = (*db)->GetTable("docs");
    ASSERT_TRUE(table.ok());
    EXPECT_EQ((*table)->row_count(), 1u);
    auto row = (*table)->Get(saved);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((*row)[1].AsStr(), "IBPD budget");
    // Index was rebuilt at open.
    auto hits = (*table)->IndexLookup("by_title", {Value::Str("IBPD budget")});
    ASSERT_TRUE(hits.ok());
    ASSERT_EQ(hits->size(), 1u);
    EXPECT_EQ((*hits)[0], saved);
  }
}

TEST(DatabaseTest, DropTableRemovesEverything) {
  auto dir = TempDir::Make("dbtest");
  ASSERT_TRUE(dir.ok());
  auto db = Database::Open(dir->str());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateTable(DocsSchema()).ok());
  ASSERT_TRUE((*db)->DropTable("docs").ok());
  EXPECT_FALSE((*db)->HasTable("docs"));
  EXPECT_TRUE((*db)->DropTable("docs").IsNotFound());
  // Re-creating after drop works.
  EXPECT_TRUE((*db)->CreateTable(DocsSchema()).ok());
}

TEST(DatabaseTest, MultipleTablesCoexist) {
  auto dir = TempDir::Make("dbtest");
  ASSERT_TRUE(dir.ok());
  auto db = Database::Open(dir->str());
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateTable(DocsSchema()).ok());
  ASSERT_TRUE((*db)
                  ->CreateTable(TableSchema(
                      "other", {ColumnSchema{"x", ValueType::kString, true}}))
                  .ok());
  auto names = (*db)->TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "docs");
  EXPECT_EQ(names[1], "other");
}

}  // namespace
}  // namespace netmark::storage
