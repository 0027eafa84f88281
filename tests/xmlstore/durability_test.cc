// Crash durability at the store level: committed documents survive a
// SIGKILL-shaped stop (nothing flushed, WAL intact), and a checkpointer
// running concurrently with a writer never tears the store.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <thread>

#include "common/temp_dir.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xmlstore/xml_store.h"

namespace netmark::xmlstore {
namespace {

namespace fs = std::filesystem;

class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("durability");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
  }

  std::unique_ptr<XmlStore> OpenAt(const std::string& path,
                                   storage::StorageOptions options = {}) {
    auto store = XmlStore::Open(path, xml::NodeTypeConfig::Default(), options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return store.ok() ? std::move(*store) : nullptr;
  }

  int64_t Insert(XmlStore* store, const std::string& markup,
                 const std::string& name) {
    auto doc = xml::ParseXml(markup);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    DocumentInfo info;
    info.file_name = name;
    info.file_date = 1118700000;
    info.file_size = static_cast<int64_t>(markup.size());
    auto id = store->InsertDocument(*doc, info);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? *id : -1;
  }

  std::string Markup(int i) {
    return "<report><context>Budget</context><content>fiscal item " +
           std::to_string(i) + " for the shuttle program</content></report>";
  }

  /// Copies the live store directory — the moral equivalent of the machine
  /// dying: whatever reached the filesystem is all a restart gets.
  std::string CrashCopy() {
    fs::path copy = dir_->path() / "crash_copy";
    fs::copy(dir_->path() / "store", copy);
    return copy.string();
  }

  std::unique_ptr<TempDir> dir_;
};

TEST_F(DurabilityTest, CommittedDocsSurviveCrashBeforeAnyCheckpoint) {
  std::string live = (dir_->path() / "store").string();
  std::unique_ptr<XmlStore> store = OpenAt(live);
  ASSERT_NE(store, nullptr);
  std::vector<std::string> expected;
  for (int i = 0; i < 5; ++i) {
    ASSERT_GT(Insert(store.get(), Markup(i), "doc" + std::to_string(i)), 0);
    auto doc = xml::ParseXml(Markup(i));
    expected.push_back(xml::Serialize(*doc));
  }
  // No checkpoint, no clean close: the dir copy sees empty heaps + a full log.
  std::string crashed = CrashCopy();

  std::unique_ptr<XmlStore> revived = OpenAt(crashed);
  ASSERT_NE(revived, nullptr);
  const storage::RecoveryStats& rec = revived->database()->recovery_stats();
  EXPECT_TRUE(rec.performed);
  EXPECT_EQ(rec.committed_txns, 5u);
  EXPECT_EQ(revived->document_count(), 5u);
  for (int i = 0; i < 5; ++i) {
    auto doc = revived->Reconstruct(i + 1);
    ASSERT_TRUE(doc.ok()) << doc.status().ToString();
    EXPECT_EQ(xml::Serialize(*doc), expected[static_cast<size_t>(i)]);
  }
  // The text index was rebuilt from recovered rows: postings follow rows.
  EXPECT_FALSE(revived->TextLookup("fiscal").empty());
}

TEST_F(DurabilityTest, CrashMidDeleteRecoversAtomically) {
  std::string live = (dir_->path() / "store").string();
  std::unique_ptr<XmlStore> store = OpenAt(live);
  ASSERT_NE(store, nullptr);
  int64_t a = Insert(store.get(), Markup(1), "a.xml");
  int64_t b = Insert(store.get(), Markup(2), "b.xml");
  ASSERT_TRUE(store->DeleteDocument(a).ok());
  std::string crashed = CrashCopy();

  std::unique_ptr<XmlStore> revived = OpenAt(crashed);
  ASSERT_NE(revived, nullptr);
  // The committed delete is fully gone, the other doc fully present.
  EXPECT_EQ(revived->document_count(), 1u);
  EXPECT_TRUE(revived->Reconstruct(a).status().IsNotFound());
  EXPECT_TRUE(revived->Reconstruct(b).ok());
}

/// Index and id counters after a reopen must follow the rows, even when a
/// replace keeps the tables' row counts exactly as they were at the last
/// checkpoint (a WebDAV PUT over a document of the same shape).
void ExpectReplacedDocumentIndexed(XmlStore* store, int64_t replaced_id) {
  EXPECT_EQ(store->TextLookup("bravo").size(), 1u);
  EXPECT_TRUE(store->TextLookup("alpha").empty());
  EXPECT_EQ(store->document_count(), 1u);
  auto doc = xml::ParseXml("<p>later words</p>");
  ASSERT_TRUE(doc.ok());
  DocumentInfo info;
  info.file_name = "c.xml";
  auto next = store->InsertDocument(*doc, info);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_GT(*next, replaced_id);
  auto docs = store->ListDocuments();
  ASSERT_TRUE(docs.ok());
  std::set<int64_t> ids;
  for (const DocRecord& rec : *docs) {
    EXPECT_TRUE(ids.insert(rec.doc_id).second) << "duplicate doc id " << rec.doc_id;
  }
  EXPECT_EQ(ids.size(), 2u);
}

TEST_F(DurabilityTest, SameShapeReplaceIsReindexedAfterReopen) {
  std::string live = (dir_->path() / "store").string();
  std::unique_ptr<XmlStore> store = OpenAt(live);
  ASSERT_NE(store, nullptr);
  int64_t a = Insert(store.get(), "<p>alpha words</p>", "a.xml");
  ASSERT_TRUE(store->Checkpoint().ok());
  ASSERT_TRUE(store->DeleteDocument(a).ok());
  int64_t b = Insert(store.get(), "<p>bravo words</p>", "a.xml");
  ASSERT_GT(b, a);
  std::string crashed = CrashCopy();
  store.reset();  // clean close

  std::unique_ptr<XmlStore> reopened = OpenAt(live);
  ASSERT_NE(reopened, nullptr);
  ExpectReplacedDocumentIndexed(reopened.get(), b);

  std::unique_ptr<XmlStore> revived = OpenAt(crashed);
  ASSERT_NE(revived, nullptr);
  EXPECT_TRUE(revived->database()->recovery_stats().performed);
  ExpectReplacedDocumentIndexed(revived.get(), b);
}

TEST_F(DurabilityTest, ConcurrentWriterAndCheckpointConsistent) {
  std::string live = (dir_->path() / "store").string();
  std::unique_ptr<XmlStore> store = OpenAt(live);
  ASSERT_NE(store, nullptr);
  constexpr int kDocs = 24;

  std::thread writer([&] {
    for (int i = 0; i < kDocs; ++i) {
      Insert(store.get(), Markup(i), "doc" + std::to_string(i));
    }
  });
  std::thread checkpointer([&] {
    for (int i = 0; i < 12; ++i) {
      netmark::Status st = store->Checkpoint();
      EXPECT_TRUE(st.ok()) << st.ToString();
      std::this_thread::yield();
    }
  });
  writer.join();
  checkpointer.join();

  EXPECT_EQ(store->document_count(), static_cast<uint64_t>(kDocs));
  for (int i = 1; i <= kDocs; ++i) {
    EXPECT_TRUE(store->Reconstruct(i).ok());
  }
  // A final checkpoint then a clean reopen sees everything.
  ASSERT_TRUE(store->Checkpoint().ok());
  store.reset();
  std::unique_ptr<XmlStore> reopened = OpenAt(live);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(reopened->document_count(), static_cast<uint64_t>(kDocs));
  EXPECT_FALSE(reopened->database()->recovery_stats().performed);
}

}  // namespace
}  // namespace netmark::xmlstore
