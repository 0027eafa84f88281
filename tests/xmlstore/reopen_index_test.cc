// The text index is not persisted: every Open rebuilds postings and the id
// counters from the XML/DOC tables. These cases check what a reopened store
// serves — words indexed before the last checkpoint and after it, and id
// sequences that continue — and that no side file is written for the index.

#include <gtest/gtest.h>

#include <filesystem>

#include "common/temp_dir.h"
#include "xml/parser.h"
#include "xmlstore/xml_store.h"

namespace netmark::xmlstore {
namespace {

TEST(SnapshotTest, StoreUsesSnapshotAcrossReopen) {
  auto dir = TempDir::Make("snapstore");
  ASSERT_TRUE(dir.ok());
  int64_t doc_id = 0;
  {
    auto store = XmlStore::Open(dir->str());
    ASSERT_TRUE(store.ok());
    auto doc = xml::ParseXml("<d><h1>Sec</h1><p>snapshottable words</p></d>");
    ASSERT_TRUE(doc.ok());
    DocumentInfo info;
    info.file_name = "a.xml";
    doc_id = *(*store)->InsertDocument(*doc, info);
    ASSERT_TRUE((*store)->Checkpoint().ok());
    // The tables are the only durable copy of the index.
    EXPECT_FALSE(std::filesystem::exists(dir->Sub("textindex.snap")));
  }
  {
    auto store = XmlStore::Open(dir->str());
    ASSERT_TRUE(store.ok());
    // Index rebuilt from the committed tables.
    EXPECT_EQ((*store)->TextLookup("snapshottable").size(), 1u);
    // Id counters recovered: the next document continues the sequence.
    auto doc = xml::ParseXml("<x/>");
    ASSERT_TRUE(doc.ok());
    DocumentInfo info;
    info.file_name = "b.xml";
    EXPECT_EQ(*(*store)->InsertDocument(*doc, info), doc_id + 1);
  }
}

TEST(SnapshotTest, StaleSnapshotFallsBackToRebuild) {
  auto dir = TempDir::Make("snapstale");
  ASSERT_TRUE(dir.ok());
  {
    auto store = XmlStore::Open(dir->str());
    ASSERT_TRUE(store.ok());
    auto doc = xml::ParseXml("<d><p>first words</p></d>");
    ASSERT_TRUE(doc.ok());
    DocumentInfo info;
    info.file_name = "a.xml";
    ASSERT_TRUE((*store)->InsertDocument(*doc, info).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());
    // More inserts after the store checkpoint, then only a database-level
    // checkpoint before close.
    auto doc2 = xml::ParseXml("<d><p>unsnapshotted words</p></d>");
    ASSERT_TRUE(doc2.ok());
    DocumentInfo info2;
    info2.file_name = "b.xml";
    ASSERT_TRUE((*store)->InsertDocument(*doc2, info2).ok());
    ASSERT_TRUE((*store)->database()->Checkpoint().ok());
  }
  auto store = XmlStore::Open(dir->str());
  ASSERT_TRUE(store.ok());
  // The rebuild at open finds words from before and after the checkpoint.
  EXPECT_EQ((*store)->TextLookup("unsnapshotted").size(), 1u);
  EXPECT_EQ((*store)->TextLookup("first").size(), 1u);
}

}  // namespace
}  // namespace netmark::xmlstore
