// Failure-injection and scale edge cases for the XML store.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/temp_dir.h"
#include "xml/parser.h"
#include "xmlstore/context_walk.h"
#include "xmlstore/xml_store.h"

namespace netmark::xmlstore {
namespace {

class StoreStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("stress");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    auto store = XmlStore::Open(dir_->str());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
  }
  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<XmlStore> store_;
};

TEST_F(StoreStressTest, HugeTextNodeGoesThroughOverflowPages) {
  // A text node far larger than a storage page must round-trip intact
  // (exercises the heap-file overflow chain through the whole store stack).
  std::string big;
  big.reserve(200 * 1024);
  for (int i = 0; i < 4000; ++i) {
    big += "sentence number " + std::to_string(i) + " about the turbopump. ";
  }
  xml::Document doc;
  xml::NodeId root = doc.CreateElement("d");
  doc.AppendChild(doc.root(), root);
  xml::NodeId h = doc.CreateElement("h1");
  doc.AppendChild(h, doc.CreateText("Big Section"));
  doc.AppendChild(root, h);
  xml::NodeId p = doc.CreateElement("p");
  doc.AppendChild(p, doc.CreateText(big));
  doc.AppendChild(root, p);

  DocumentInfo info;
  info.file_name = "big.xml";
  auto id = store_->InsertDocument(doc, info);
  ASSERT_TRUE(id.ok());
  auto rebuilt = store_->Reconstruct(*id);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE(xml::Document::SubtreeEquals(doc, doc.root(), *rebuilt,
                                           rebuilt->root()));
  // The index still finds terms inside the huge node, and the context walk
  // still resolves from it.
  auto hits = store_->TextLookup("turbopump");
  ASSERT_EQ(hits.size(), 1u);
  auto ctx = FindGoverningContext(*store_, hits[0]);
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ(*store_->SubtreeText(*ctx), "Big Section");
}

TEST_F(StoreStressTest, DeeplyNestedDocument) {
  std::string markup;
  const int kDepth = 300;
  for (int i = 0; i < kDepth; ++i) markup += "<n" + std::to_string(i) + ">";
  markup += "leaf text";
  for (int i = kDepth - 1; i >= 0; --i) markup += "</n" + std::to_string(i) + ">";
  auto doc = xml::ParseXml(markup);
  ASSERT_TRUE(doc.ok());
  DocumentInfo info;
  info.file_name = "deep.xml";
  auto id = store_->InsertDocument(*doc, info);
  ASSERT_TRUE(id.ok());
  auto rebuilt = store_->Reconstruct(*id);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE(xml::Document::SubtreeEquals(*doc, doc->root(), *rebuilt,
                                           rebuilt->root()));
  // The upward walk from the leaf terminates (no context present).
  auto hits = store_->TextLookup("leaf");
  ASSERT_EQ(hits.size(), 1u);
  auto ctx = FindGoverningContext(*store_, hits[0]);
  ASSERT_TRUE(ctx.ok());
  EXPECT_FALSE(ctx->valid());
}

TEST_F(StoreStressTest, WideSiblingFanout) {
  xml::Document doc;
  xml::NodeId root = doc.CreateElement("d");
  doc.AppendChild(doc.root(), root);
  const int kKids = 2000;
  for (int i = 0; i < kKids; ++i) {
    xml::NodeId p = doc.CreateElement("p");
    doc.AppendChild(p, doc.CreateText("child " + std::to_string(i)));
    doc.AppendChild(root, p);
  }
  DocumentInfo info;
  info.file_name = "wide.xml";
  auto id = store_->InsertDocument(doc, info);
  ASSERT_TRUE(id.ok());
  auto nodes = store_->DocumentNodes(*id);
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(nodes->size(), 1u + 2u * kKids);
  // Forward chain covers all children.
  auto kids = store_->Children((*nodes)[0].first);
  ASSERT_TRUE(kids.ok());
  EXPECT_EQ(kids->size(), static_cast<size_t>(kKids));
}

TEST_F(StoreStressTest, InterleavedInsertDeleteKeepsStoreConsistent) {
  netmark::Rng rng(31337);
  std::vector<int64_t> live;
  for (int step = 0; step < 120; ++step) {
    if (rng.Chance(0.65) || live.empty()) {
      std::string marker = "marker" + std::to_string(step);
      auto doc = xml::ParseXml("<d><h1>Sec</h1><p>" + marker + " words</p></d>");
      ASSERT_TRUE(doc.ok());
      DocumentInfo info;
      info.file_name = marker + ".xml";
      auto id = store_->InsertDocument(*doc, info);
      ASSERT_TRUE(id.ok());
      live.push_back(*id);
    } else {
      size_t pick = rng.Uniform(live.size());
      ASSERT_TRUE(store_->DeleteDocument(live[pick]).ok());
      live.erase(live.begin() + static_cast<long>(pick));
    }
  }
  EXPECT_EQ(store_->document_count(), live.size());
  // Every surviving document reconstructs and its marker is findable.
  for (int64_t id : live) {
    auto info = store_->GetDocumentInfo(id);
    ASSERT_TRUE(info.ok());
    std::string marker = info->file_name.substr(0, info->file_name.find('.'));
    EXPECT_FALSE(store_->TextLookup(marker).empty()) << marker;
    EXPECT_TRUE(store_->Reconstruct(id).ok());
  }
  // Reopen and re-verify (index rebuild path under churn).
  ASSERT_TRUE(store_->Checkpoint().ok());
  std::string dir = dir_->str();
  store_.reset();
  auto reopened = XmlStore::Open(dir);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->document_count(), live.size());
  for (int64_t id : live) {
    EXPECT_TRUE((*reopened)->Reconstruct(id).ok());
  }
}

TEST_F(StoreStressTest, ManySmallDocumentsScale) {
  for (int i = 0; i < 500; ++i) {
    auto doc = xml::ParseXml("<d><h1>T" + std::to_string(i) + "</h1><p>body " +
                             std::to_string(i) + "</p></d>");
    ASSERT_TRUE(doc.ok());
    DocumentInfo info;
    info.file_name = std::to_string(i) + ".xml";
    ASSERT_TRUE(store_->InsertDocument(*doc, info).ok());
  }
  EXPECT_EQ(store_->document_count(), 500u);
  // Spot-check random access.
  auto rebuilt = store_->Reconstruct(250);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_NE(rebuilt->TextContent(rebuilt->root()).find("body 249"),
            std::string::npos);
}

}  // namespace
}  // namespace netmark::xmlstore
