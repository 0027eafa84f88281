#include "core/netmark.h"

#include <gtest/gtest.h>

#include "common/temp_dir.h"

namespace netmark {
namespace {

class FacadeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("facade");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    NetmarkOptions options;
    options.data_dir = dir_->Sub("data").string();
    auto nm = Netmark::Open(options);
    ASSERT_TRUE(nm.ok());
    nm_ = std::move(*nm);
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<Netmark> nm_;
};

TEST_F(FacadeTest, OpenRequiresDataDir) {
  EXPECT_TRUE(Netmark::Open(NetmarkOptions{}).status().IsInvalidArgument());
}

TEST_F(FacadeTest, IngestQueryLifecycle) {
  auto id = nm_->IngestContent("memo.txt", "OVERVIEW\nengine status green\n");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 1);

  auto hits = nm_->Query("context=Overview");
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].heading, "OVERVIEW");

  auto xml_out = nm_->QueryToXml("content=engine");
  ASSERT_TRUE(xml_out.ok());
  EXPECT_NE(xml_out->find("memo.txt"), std::string::npos);

  auto docs = nm_->ListDocuments();
  ASSERT_TRUE(docs.ok());
  ASSERT_EQ(docs->size(), 1u);

  auto doc_xml = nm_->GetDocumentXml(*id);
  ASSERT_TRUE(doc_xml.ok());
  EXPECT_NE(doc_xml->find("engine status green"), std::string::npos);

  ASSERT_TRUE(nm_->DeleteDocument(*id).ok());
  EXPECT_TRUE(nm_->GetDocumentXml(*id).status().IsNotFound());
}

TEST_F(FacadeTest, IngestFileFromDisk) {
  auto path = dir_->Sub("on_disk.md");
  ASSERT_TRUE(WriteFile(path, "# Heading\n\ndisk-borne body\n").ok());
  auto id = nm_->IngestFile(path);
  ASSERT_TRUE(id.ok());
  auto hits = nm_->Query("context=Heading");
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits->size(), 1u);
  EXPECT_TRUE(nm_->IngestFile(dir_->Sub("missing.txt")).status().IsIOError());
}

TEST_F(FacadeTest, ContextSearchIsCaseInsensitive) {
  ASSERT_TRUE(nm_->IngestContent("r.txt", "TECHNOLOGY GAP\nshrinking\n").ok());
  EXPECT_EQ(nm_->Query("context=technology+gap")->size(), 1u);
  EXPECT_EQ(nm_->Query("context=Technology+Gap")->size(), 1u);
}

TEST_F(FacadeTest, QueryAndTransform) {
  ASSERT_TRUE(nm_->IngestContent("a.txt", "ALPHA\none\n").ok());
  ASSERT_TRUE(nm_->IngestContent("b.txt", "ALPHA\ntwo\n").ok());
  auto out = nm_->QueryAndTransform(
      "context=Alpha",
      "<xsl:stylesheet><xsl:template match=\"/\">"
      "<n><xsl:value-of select=\"results/@count\"/></n>"
      "</xsl:template></xsl:stylesheet>");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, "<n>2</n>");
  // Broken stylesheet surfaces the parse error.
  EXPECT_FALSE(nm_->QueryAndTransform("context=Alpha", "<bogus/>").ok());
}

TEST_F(FacadeTest, SelfSourceAndDatabank) {
  ASSERT_TRUE(nm_->IngestContent("x.txt", "SECTION\nfederated words\n").ok());
  ASSERT_TRUE(nm_->RegisterSelfAsSource("me").ok());
  ASSERT_TRUE(nm_->DefineDatabank("solo", {"me"}).ok());
  auto result = nm_->QueryDatabankFederated("solo", "context=Section");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), 1u);
  EXPECT_EQ(result->hits[0].source, "me");
}

TEST_F(FacadeTest, ServerLifecycle) {
  EXPECT_EQ(nm_->server_port(), 0);
  ASSERT_TRUE(nm_->StartServer().ok());
  EXPECT_GT(nm_->server_port(), 0);
  EXPECT_TRUE(nm_->StartServer().IsAlreadyExists());
  nm_->StopServer();
  EXPECT_EQ(nm_->server_port(), 0);
  // Restartable.
  ASSERT_TRUE(nm_->StartServer().ok());
  nm_->StopServer();
}

TEST_F(FacadeTest, DaemonRequiresStart) {
  EXPECT_TRUE(nm_->ProcessDropFolderOnce().status().IsInvalidArgument());
}

}  // namespace
}  // namespace netmark
