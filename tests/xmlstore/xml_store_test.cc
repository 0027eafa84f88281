#include "xmlstore/xml_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/env.h"
#include "common/temp_dir.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace netmark::xmlstore {
namespace {

constexpr const char* kUpmarked =
    "<document>"
    "<context>Abstract</context>"
    "<content>This paper describes an approach to data integration.</content>"
    "<context>Introduction</context>"
    "<content>Seamless integrated access to multiple sources.</content>"
    "</document>";

class XmlStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("xmlstore");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    OpenStore();
  }
  void OpenStore() {
    store_.reset();
    auto store = XmlStore::Open(dir_->str());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(*store);
  }
  int64_t Insert(const char* markup, const std::string& name = "test.xml") {
    auto doc = xml::ParseXml(markup);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    DocumentInfo info;
    info.file_name = name;
    info.file_date = 1118700000;
    info.file_size = static_cast<int64_t>(std::string(markup).size());
    auto id = store_->InsertDocument(*doc, info);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return *id;
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<XmlStore> store_;
};

TEST_F(XmlStoreTest, FreshStoreIsEmpty) {
  EXPECT_EQ(store_->document_count(), 0u);
  EXPECT_EQ(store_->node_count(), 0u);
  EXPECT_TRUE(store_->ListDocuments()->empty());
}

TEST_F(XmlStoreTest, InsertAssignsSequentialDocIds) {
  EXPECT_EQ(Insert("<a/>"), 1);
  EXPECT_EQ(Insert("<b/>"), 2);
  EXPECT_EQ(store_->document_count(), 2u);
}

TEST_F(XmlStoreTest, DocumentInfoStored) {
  int64_t id = Insert(kUpmarked, "paper.xml");
  auto info = store_->GetDocumentInfo(id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->file_name, "paper.xml");
  EXPECT_EQ(info->file_date, 1118700000);
  EXPECT_GT(info->file_size, 0);
  EXPECT_TRUE(store_->GetDocumentInfo(999).status().IsNotFound());
}

TEST_F(XmlStoreTest, SchemaIsFixedRegardlessOfDocumentShape) {
  uint64_t ddl_before = store_->database()->ddl_statements();
  Insert("<memo><to>a</to></memo>");
  Insert("<totally><different doc=\"yes\"><shape/></different></totally>");
  Insert(kUpmarked);
  // The schema-less claim: zero DDL per document type.
  EXPECT_EQ(store_->database()->ddl_statements(), ddl_before);
  EXPECT_EQ(store_->database()->TableNames().size(), 2u);  // XML + DOC only
}

TEST_F(XmlStoreTest, ReconstructMatchesOriginal) {
  auto original = xml::ParseXml(kUpmarked);
  ASSERT_TRUE(original.ok());
  int64_t id = Insert(kUpmarked);
  auto rebuilt = store_->Reconstruct(id);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_TRUE(xml::Document::SubtreeEquals(*original, original->root(), *rebuilt,
                                           rebuilt->root()))
      << xml::Serialize(*rebuilt);
}

TEST_F(XmlStoreTest, ReconstructPreservesAttributes) {
  const char* markup = R"(<doc id="d1"><sec class="intro" n="2">text</sec></doc>)";
  int64_t id = Insert(markup);
  auto rebuilt = store_->Reconstruct(id);
  ASSERT_TRUE(rebuilt.ok());
  xml::NodeId docel = rebuilt->DocumentElement();
  EXPECT_EQ(rebuilt->GetAttribute(docel, "id"), "d1");
  xml::NodeId sec = rebuilt->FirstChildElement(docel, "sec");
  EXPECT_EQ(rebuilt->GetAttribute(sec, "class"), "intro");
  EXPECT_EQ(rebuilt->GetAttribute(sec, "n"), "2");
}

TEST_F(XmlStoreTest, NodeLinksFormTraversableTree) {
  int64_t id = Insert(kUpmarked);
  auto nodes = store_->DocumentNodes(id);
  ASSERT_TRUE(nodes.ok());
  // document + 4 children + 4 text nodes = 9
  ASSERT_EQ(nodes->size(), 9u);
  // First node is the root element with no parent.
  const auto& [root_rowid, root_rec] = (*nodes)[0];
  EXPECT_EQ(root_rec.node_name, "document");
  EXPECT_FALSE(root_rec.parent_rowid.valid());
  EXPECT_EQ(root_rec.parent_node_id, 0);
  // Its four children chain via sibling links.
  auto kids = store_->Children(root_rowid);
  ASSERT_TRUE(kids.ok());
  ASSERT_EQ(kids->size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    auto rec = store_->ReadNode((*kids)[i]);
    ASSERT_TRUE(rec.ok());
    EXPECT_EQ(rec->parent_rowid, root_rowid);
    if (i + 1 < 4) {
      EXPECT_EQ(rec->sibling_rowid, (*kids)[i + 1]);
    } else {
      EXPECT_FALSE(rec->sibling_rowid.valid());
    }
    if (i > 0) {
      EXPECT_EQ(rec->prev_rowid, (*kids)[i - 1]);
    } else {
      EXPECT_FALSE(rec->prev_rowid.valid());
    }
  }
}

TEST_F(XmlStoreTest, NodeTypesAssignedPerConfig) {
  int64_t id = Insert("<d><h1>Head</h1><p>body <b>bold</b></p></d>");
  auto nodes = store_->DocumentNodes(id);
  ASSERT_TRUE(nodes.ok());
  int contexts = 0, intense = 0, texts = 0, elements = 0;
  for (const auto& [rowid, rec] : *nodes) {
    switch (rec.node_type) {
      case xml::NetmarkNodeType::kContext: ++contexts; break;
      case xml::NetmarkNodeType::kIntense: ++intense; break;
      case xml::NetmarkNodeType::kText: ++texts; break;
      default: ++elements; break;
    }
  }
  EXPECT_EQ(contexts, 1);  // h1
  EXPECT_EQ(intense, 1);   // b
  EXPECT_EQ(texts, 3);     // "Head", "body ", "bold"
  EXPECT_EQ(elements, 2);  // d, p
}

TEST_F(XmlStoreTest, TextIndexFindsNodes) {
  Insert(kUpmarked);
  auto hits = store_->TextLookup("seamless");
  ASSERT_EQ(hits.size(), 1u);
  auto rec = store_->ReadNode(hits[0]);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->is_text());
  EXPECT_NE(rec->node_data.find("Seamless"), std::string::npos);
}

TEST_F(XmlStoreTest, TextScanAgreesWithIndex) {
  Insert(kUpmarked);
  Insert("<d><p>integration of sources</p></d>");
  for (const char* term : {"integration", "seamless", "sources", "missing"}) {
    auto indexed = store_->TextLookup(term);
    auto scanned = store_->TextScanMatch(textindex::ParseTextQuery(term));
    ASSERT_TRUE(scanned.ok());
    std::sort(scanned->begin(), scanned->end());
    std::sort(indexed.begin(), indexed.end());
    EXPECT_EQ(indexed, *scanned) << term;
  }
}

TEST_F(XmlStoreTest, DeleteDocumentRemovesRowsAndIndexEntries) {
  int64_t keep = Insert(kUpmarked);
  int64_t gone = Insert("<d><p>unique-marker-word</p></d>");
  ASSERT_FALSE(store_->TextLookup("unique").empty());
  ASSERT_TRUE(store_->DeleteDocument(gone).ok());
  // Posting removal is deferred until version GC passes the delete's epoch
  // (docs/mvcc.md); with no pinned snapshot one pass drains it.
  store_->RunVersionGc();
  EXPECT_TRUE(store_->TextLookup("unique").empty());
  EXPECT_TRUE(store_->GetDocumentInfo(gone).status().IsNotFound());
  EXPECT_TRUE(store_->Reconstruct(gone).status().IsNotFound());
  // Other document untouched.
  EXPECT_TRUE(store_->Reconstruct(keep).ok());
  EXPECT_TRUE(store_->DeleteDocument(gone).IsNotFound());
}

TEST_F(XmlStoreTest, SubtreeTextConcatenates) {
  int64_t id = Insert("<d><p>alpha <b>beta</b> gamma</p></d>");
  auto nodes = store_->DocumentNodes(id);
  ASSERT_TRUE(nodes.ok());
  // Find the <p> row.
  for (const auto& [rowid, rec] : *nodes) {
    if (rec.node_name == "p") {
      auto text = store_->SubtreeText(rowid);
      ASSERT_TRUE(text.ok());
      EXPECT_EQ(*text, "alpha  beta  gamma");
      return;
    }
  }
  FAIL() << "no <p> row found";
}

TEST_F(XmlStoreTest, PersistsAcrossReopen) {
  int64_t id = Insert(kUpmarked, "persist.xml");
  ASSERT_TRUE(store_->Checkpoint().ok());
  OpenStore();
  EXPECT_EQ(store_->document_count(), 1u);
  auto rebuilt = store_->Reconstruct(id);
  ASSERT_TRUE(rebuilt.ok());
  // Text index rebuilt from rows.
  EXPECT_EQ(store_->TextLookup("seamless").size(), 1u);
  // New documents get fresh ids.
  EXPECT_EQ(Insert("<x/>"), id + 1);
}

TEST_F(XmlStoreTest, CDataCommentsAndPiSurviveRoundTrip) {
  xml::ParseOptions opts;
  opts.keep_comments = true;
  auto doc = xml::Parse(
      "<r><![CDATA[raw <markup>]]><!--note--><?style sheet?></r>", opts);
  ASSERT_TRUE(doc.ok());
  DocumentInfo info;
  info.file_name = "mixed.xml";
  auto id = store_->InsertDocument(*doc, info);
  ASSERT_TRUE(id.ok());
  auto rebuilt = store_->Reconstruct(*id);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_TRUE(xml::Document::SubtreeEquals(*doc, doc->root(), *rebuilt,
                                           rebuilt->root()))
      << xml::Serialize(*rebuilt);
}

TEST_F(XmlStoreTest, ListDocumentsSorted) {
  Insert("<a/>", "a.xml");
  Insert("<b/>", "b.xml");
  Insert("<c/>", "c.xml");
  auto docs = store_->ListDocuments();
  ASSERT_TRUE(docs.ok());
  ASSERT_EQ(docs->size(), 3u);
  EXPECT_EQ((*docs)[0].file_name, "a.xml");
  EXPECT_EQ((*docs)[2].file_name, "c.xml");
}

// Runs in the TSan CI matrix (test name matches its Scrubber filter): the
// paced background scrub thread and an on-demand ScrubAll race writers and
// readers; nothing may tear, false-quarantine, or deadlock.
TEST(XmlStoreScrubberTest, ScrubberRunsConcurrentlyWithIngestAndReads) {
  auto dir = TempDir::Make("scrubber");
  ASSERT_TRUE(dir.ok());
  storage::StorageOptions sopts;
  sopts.scrub_pages_per_sec = 5000;  // several full passes per second
  auto store =
      XmlStore::Open(dir->str(), xml::NodeTypeConfig::Default(), sopts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      (void)(*store)->ListDocuments();
      (void)(*store)->ScrubAll();
    }
  });

  for (int i = 0; i < 40; ++i) {
    auto doc = xml::ParseXml(kUpmarked);
    ASSERT_TRUE(doc.ok());
    DocumentInfo info;
    info.file_name = "doc" + std::to_string(i) + ".xml";
    auto id = (*store)->InsertDocument(*doc, info);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
  }
  ASSERT_TRUE((*store)->Checkpoint().ok());

  // Wait for the background thread to complete at least one full pass over
  // flushed pages (it ticks every 100ms).
  for (int tries = 0; tries < 100 && (*store)->scrub_passes() < 1; ++tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  stop.store(true);
  reader.join();

  EXPECT_GE((*store)->scrub_passes(), 1u);
  EXPECT_GT((*store)->scrub_pages_scanned(), 0u);
  // A healthy disk must never scrub up errors or quarantine anything.
  EXPECT_EQ((*store)->scrub_errors_found(), 0u);
  EXPECT_EQ((*store)->quarantined_pages(), 0u);
  auto rebuilt = (*store)->Reconstruct(1);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  store->reset();  // joins the scrub thread
}

// A failed commit-path fsync must latch read-only degraded mode: the failed
// insert is not acked, later mutations are refused up front, reads keep
// working.
TEST(XmlStoreDegradedTest, FsyncFailureLatchesReadOnlyMode) {
  auto dir = TempDir::Make("degraded");
  ASSERT_TRUE(dir.ok());

  // A clean first open seeds one committed document.
  {
    auto store = XmlStore::Open(dir->str());
    ASSERT_TRUE(store.ok());
    auto doc = xml::ParseXml(kUpmarked);
    ASSERT_TRUE(doc.ok());
    DocumentInfo info;
    info.file_name = "seed.xml";
    ASSERT_TRUE((*store)->InsertDocument(*doc, info).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());
  }

  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kFsyncFail;
  spec.nth = 1;
  spec.sticky = true;
  FaultInjectingEnv env(spec);
  storage::StorageOptions sopts;
  sopts.env = &env;
  auto store = XmlStore::Open(dir->str(), xml::NodeTypeConfig::Default(), sopts);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_FALSE((*store)->degraded());

  auto doc = xml::ParseXml(kUpmarked);
  ASSERT_TRUE(doc.ok());
  DocumentInfo info;
  info.file_name = "doomed.xml";
  auto id = (*store)->InsertDocument(*doc, info);
  ASSERT_FALSE(id.ok());  // never acked after the failed fsync
  EXPECT_TRUE((*store)->degraded());
  EXPECT_NE((*store)->degraded_reason().find("injected"), std::string::npos);

  // Mutations are refused up front with the degraded status...
  auto again = (*store)->InsertDocument(*doc, info);
  ASSERT_FALSE(again.ok());
  EXPECT_TRUE(again.status().IsUnavailable()) << again.status().ToString();
  EXPECT_TRUE((*store)->DeleteDocument(1).IsUnavailable());

  // ...while reads keep serving the committed state.
  auto docs = (*store)->ListDocuments();
  ASSERT_TRUE(docs.ok());
  ASSERT_EQ(docs->size(), 1u);
  EXPECT_EQ((*docs)[0].file_name, "seed.xml");
  EXPECT_TRUE((*store)->Reconstruct(1).ok());
}

}  // namespace
}  // namespace netmark::xmlstore
