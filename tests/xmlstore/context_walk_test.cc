#include "xmlstore/context_walk.h"

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "xml/parser.h"

namespace netmark::xmlstore {
namespace {

// Flat HTML-style layout: headings are siblings of their content.
constexpr const char* kFlatDoc =
    "<html>"
    "<h1>Introduction</h1>"
    "<p>Seamless integrated access is a challenge.</p>"
    "<p>Middleware technology requires investment.</p>"
    "<h1>Technology Gap</h1>"
    "<p>The technology gap is shrinking rapidly.</p>"
    "<h1>Conclusions</h1>"
    "<p>We presented a framework.</p>"
    "</html>";

// Nodes in a section's content run: the body document's top-level nodes.
size_t RunLength(const xml::Document& body) {
  return body.Children(body.root()).size();
}

// A section's body text, by the run rule.
std::string BodyText(const xml::Document& body) {
  return body.JoinedText(body.first_child(body.root()), xml::kInvalidNode);
}

class ContextWalkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("ctxwalk");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    auto store = XmlStore::Open(dir_->str());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    auto doc = xml::ParseXml(kFlatDoc);
    ASSERT_TRUE(doc.ok());
    DocumentInfo info;
    info.file_name = "flat.html";
    auto id = store_->InsertDocument(*doc, info);
    ASSERT_TRUE(id.ok());
    doc_id_ = *id;
  }

  // RowId of the unique text node containing `term`.
  storage::RowId Hit(const std::string& term) {
    auto hits = store_->TextLookup(term);
    EXPECT_EQ(hits.size(), 1u) << term;
    return hits.empty() ? storage::kInvalidRowId : hits[0];
  }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<XmlStore> store_;
  int64_t doc_id_ = 0;
};

TEST_F(ContextWalkTest, FindsGoverningHeadingForBodyText) {
  auto ctx = FindGoverningContext(*store_, Hit("shrinking"));
  ASSERT_TRUE(ctx.ok());
  ASSERT_TRUE(ctx->valid());
  auto heading = store_->SubtreeText(*ctx);
  ASSERT_TRUE(heading.ok());
  EXPECT_EQ(*heading, "Technology Gap");
}

TEST_F(ContextWalkTest, HeadingTextResolvesToItsOwnContext) {
  // A hit inside the heading itself governs to that heading.
  auto ctx = FindGoverningContext(*store_, Hit("conclusions"));
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ(*store_->SubtreeText(*ctx), "Conclusions");
}

TEST_F(ContextWalkTest, EarlierSectionResolved) {
  auto ctx = FindGoverningContext(*store_, Hit("middleware"));
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ(*store_->SubtreeText(*ctx), "Introduction");
}

TEST_F(ContextWalkTest, TextBeforeAnyHeadingHasNoContext) {
  auto doc = xml::ParseXml("<d><p>preamble words</p><h1>First</h1><p>body</p></d>");
  ASSERT_TRUE(doc.ok());
  DocumentInfo info;
  info.file_name = "pre.xml";
  ASSERT_TRUE(store_->InsertDocument(*doc, info).ok());
  auto ctx = FindGoverningContext(*store_, Hit("preamble"));
  ASSERT_TRUE(ctx.ok());
  EXPECT_FALSE(ctx->valid());
}

TEST_F(ContextWalkTest, IndexWalkAgreesWithRowidWalk) {
  for (const char* term : {"shrinking", "middleware", "seamless", "framework",
                           "introduction", "presented"}) {
    auto via_rowid = FindGoverningContext(*store_, Hit(term));
    auto via_index = FindGoverningContextViaIndex(*store_, Hit(term));
    ASSERT_TRUE(via_rowid.ok()) << term;
    ASSERT_TRUE(via_index.ok()) << term;
    EXPECT_EQ(*via_rowid, *via_index) << term;
  }
}

TEST_F(ContextWalkTest, SectionContentStopsAtNextHeading) {
  auto ctx = FindGoverningContext(*store_, Hit("seamless"));
  ASSERT_TRUE(ctx.ok());
  auto section = BuildSection(*store_, *ctx);
  ASSERT_TRUE(section.ok());
  ASSERT_TRUE(section->has_value());
  EXPECT_EQ(RunLength((*section)->body), 2u);  // the two <p> of Introduction
  const std::string text = BodyText((*section)->body);
  EXPECT_NE(text.find("Seamless"), std::string::npos);
  EXPECT_NE(text.find("Middleware"), std::string::npos);
  EXPECT_EQ(text.find("shrinking"), std::string::npos);  // next section excluded
}

TEST_F(ContextWalkTest, LastSectionRunsToEnd) {
  auto ctx = FindGoverningContext(*store_, Hit("framework"));
  ASSERT_TRUE(ctx.ok());
  auto section = BuildSection(*store_, *ctx);
  ASSERT_TRUE(section.ok());
  ASSERT_TRUE(section->has_value());
  EXPECT_EQ(RunLength((*section)->body), 1u);
}

TEST_F(ContextWalkTest, SectionContentRejectsNonContextNode) {
  EXPECT_TRUE(BuildSection(*store_, Hit("shrinking")).status().IsInvalidArgument());
}

TEST_F(ContextWalkTest, BuildSectionAssemblesEverything) {
  auto ctx = FindGoverningContext(*store_, Hit("shrinking"));
  ASSERT_TRUE(ctx.ok());
  auto section = BuildSection(*store_, *ctx);
  ASSERT_TRUE(section.ok());
  ASSERT_TRUE(section->has_value());
  EXPECT_EQ((*section)->heading, "Technology Gap");
  EXPECT_EQ((*section)->doc_id, doc_id_);
  EXPECT_EQ(RunLength((*section)->body), 1u);
}

TEST_F(ContextWalkTest, BuildSectionMatchesHeadingBeforeContent) {
  auto ctx = FindGoverningContext(*store_, Hit("shrinking"));
  ASSERT_TRUE(ctx.ok());
  const textindex::TextQuery matching = textindex::ParseTextQuery("technology");
  auto kept = BuildSection(*store_, *ctx, &matching);
  ASSERT_TRUE(kept.ok());
  ASSERT_TRUE(kept->has_value());
  EXPECT_EQ(RunLength((*kept)->body), 1u);
  const textindex::TextQuery other = textindex::ParseTextQuery("budget");
  auto rejected = BuildSection(*store_, *ctx, &other);
  ASSERT_TRUE(rejected.ok());
  EXPECT_FALSE(rejected->has_value());
}

TEST_F(ContextWalkTest, UpmarkedNestedContentLayout) {
  // The converter-style layout from the paper's Fig: context/content pairs.
  auto doc = xml::ParseXml(
      "<document>"
      "<context>Data Storage</context>"
      "<content>NETMARK is designed to store documents.</content>"
      "<context>Query Processing</context>"
      "<content>Keyword search uses the text index.</content>"
      "</document>");
  ASSERT_TRUE(doc.ok());
  DocumentInfo info;
  info.file_name = "upmarked.xml";
  ASSERT_TRUE(store_->InsertDocument(*doc, info).ok());
  auto ctx = FindGoverningContext(*store_, Hit("keyword"));
  ASSERT_TRUE(ctx.ok());
  EXPECT_EQ(*store_->SubtreeText(*ctx), "Query Processing");
  auto section = BuildSection(*store_, *ctx);
  ASSERT_TRUE(section.ok());
  ASSERT_TRUE(section->has_value());
  EXPECT_NE(BodyText((*section)->body).find("text index"), std::string::npos);
}

}  // namespace
}  // namespace netmark::xmlstore
