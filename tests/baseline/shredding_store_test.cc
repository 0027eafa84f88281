#include "baseline/shredding_store.h"

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace netmark::baseline {
namespace {

xmlstore::DocumentInfo Info(const std::string& name) {
  xmlstore::DocumentInfo info;
  info.file_name = name;
  return info;
}

class ShreddingStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = netmark::TempDir::Make("shred");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<netmark::TempDir>(std::move(*dir));
    auto store = ShreddingStore::Open(dir_->str());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
  }

  int64_t Insert(const char* markup, const std::string& name = "d.xml") {
    auto doc = xml::ParseXml(markup);
    EXPECT_TRUE(doc.ok());
    auto id = store_->InsertDocument(*doc, Info(name));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? *id : -1;
  }

  std::unique_ptr<netmark::TempDir> dir_;
  std::unique_ptr<ShreddingStore> store_;
};

TEST_F(ShreddingStoreTest, SanitizeTagNames) {
  EXPECT_EQ(SanitizeTag("memo"), "memo");
  EXPECT_EQ(SanitizeTag("netmark:meta"), "netmark_meta");
  EXPECT_EQ(SanitizeTag("H1"), "h1");
  EXPECT_EQ(SanitizeTag("#text"), "_text");
  EXPECT_EQ(SanitizeTag(""), "tag");
}

TEST_F(ShreddingStoreTest, FirstDocumentOfTypeTriggersDdl) {
  uint64_t before = store_->ddl_statements();
  Insert("<memo><to>team</to><body>hello</body></memo>");
  uint64_t after_first = store_->ddl_statements();
  // Tables for memo, to, body, #text (+ indexes) were created.
  EXPECT_GT(after_first, before);
  // A second structurally identical memo costs no DDL.
  Insert("<memo><to>others</to><body>again</body></memo>");
  EXPECT_EQ(store_->ddl_statements(), after_first);
}

TEST_F(ShreddingStoreTest, NewTagWithinKnownTypeCostsMoreDdl) {
  Insert("<memo><to>x</to></memo>");
  uint64_t before = store_->ddl_statements();
  Insert("<memo><to>y</to><cc>z</cc></memo>");  // <cc> is new
  EXPECT_GT(store_->ddl_statements(), before);
}

TEST_F(ShreddingStoreTest, EachNewTypeCostsDdl) {
  Insert("<memo><body>a</body></memo>");
  uint64_t after_memo = store_->ddl_statements();
  Insert("<report><body>b</body></report>");  // same tags, different type!
  EXPECT_GT(store_->ddl_statements(), after_memo);
  EXPECT_GE(store_->table_count(), 4u);
}

TEST_F(ShreddingStoreTest, ReconstructMatchesOriginal) {
  const char* markup =
      "<memo priority=\"high\"><to>team</to>"
      "<body>status is <b>green</b> today</body></memo>";
  auto original = xml::ParseXml(markup);
  ASSERT_TRUE(original.ok());
  int64_t id = Insert(markup);
  auto rebuilt = store_->Reconstruct(id);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_TRUE(xml::Document::SubtreeEquals(*original, original->root(), *rebuilt,
                                           rebuilt->root()))
      << xml::Serialize(*rebuilt);
}

TEST_F(ShreddingStoreTest, MultipleDocumentsIsolated) {
  int64_t a = Insert("<memo><body>first</body></memo>");
  int64_t b = Insert("<memo><body>second</body></memo>");
  auto ra = store_->Reconstruct(a);
  auto rb = store_->Reconstruct(b);
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->TextContent(ra->root()), "first");
  EXPECT_EQ(rb->TextContent(rb->root()), "second");
  EXPECT_EQ(store_->document_count(), 2u);
}

TEST_F(ShreddingStoreTest, ReconstructMissingDocFails) {
  EXPECT_TRUE(store_->Reconstruct(42).status().IsNotFound());
}

TEST_F(ShreddingStoreTest, PersistsAcrossReopen) {
  int64_t id = Insert("<memo><body>persist</body></memo>");
  ASSERT_TRUE(store_->database()->Checkpoint().ok());
  uint64_t ddl = store_->ddl_statements();
  store_.reset();
  auto reopened = ShreddingStore::Open(dir_->str());
  ASSERT_TRUE(reopened.ok());
  store_ = std::move(*reopened);
  EXPECT_EQ(store_->ddl_statements(), ddl);
  auto rebuilt = store_->Reconstruct(id);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt->TextContent(rebuilt->root()), "persist");
  // Ids continue.
  EXPECT_EQ(Insert("<memo><body>next</body></memo>"), id + 1);
}

TEST_F(ShreddingStoreTest, SingleWriterKeepsOneVersionPerPage) {
  int64_t a = Insert("<memo><to>x</to><body>first</body></memo>");
  Insert("<memo><to>y</to><body>second</body></memo>");
  Insert("<report><body>third</body></report>");
  // Each insert publishes and reclaims at once, so every page holds exactly
  // one version.
  storage::Database* db = store_->database();
  uint64_t pages = 0;
  for (const std::string& name : db->TableNames()) {
    auto table = db->GetTable(name);
    ASSERT_TRUE(table.ok());
    pages += (*table)->pager().page_count();
  }
  EXPECT_GT(pages, 0u);
  EXPECT_EQ(db->retained_versions(), pages);
  auto rebuilt = store_->Reconstruct(a);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt->TextContent(rebuilt->root()), "xfirst");
}

TEST_F(ShreddingStoreTest, DocumentWithoutRootRejected) {
  xml::Document empty;
  EXPECT_TRUE(
      store_->InsertDocument(empty, Info("e.xml")).status().IsInvalidArgument());
}

}  // namespace
}  // namespace netmark::baseline
