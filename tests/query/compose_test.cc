#include "query/compose.h"

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace netmark::query {
namespace {

class ComposeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = netmark::TempDir::Make("compose");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<netmark::TempDir>(std::move(*dir));
    auto store = xmlstore::XmlStore::Open(dir_->str());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    auto doc = xml::ParseXml(
        "<doc><h1>Budget</h1><p>Amount is <b>100</b> thousand.</p>"
        "<table><row>data</row></table>"
        "<h1>Schedule</h1><p>Q3 delivery.</p></doc>");
    ASSERT_TRUE(doc.ok());
    xmlstore::DocumentInfo info;
    info.file_name = "plan.xml";
    ASSERT_TRUE(store_->InsertDocument(*doc, info).ok());
  }

  std::unique_ptr<netmark::TempDir> dir_;
  std::unique_ptr<xmlstore::XmlStore> store_;
};

TEST_F(ComposeTest, BuildsResultsDocumentWithSectionMarkup) {
  auto q = ParseXdbQuery("context=Budget");
  ASSERT_TRUE(q.ok());
  QueryExecutor executor(store_.get());
  auto hits = executor.Execute(*q);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);

  auto composed = ComposeResults(*store_, *q, *hits);
  ASSERT_TRUE(composed.ok());
  std::string xml_text = xml::Serialize(*composed);
  EXPECT_NE(xml_text.find("<results"), std::string::npos);
  EXPECT_NE(xml_text.find("count=\"1\""), std::string::npos);
  EXPECT_NE(xml_text.find("doc=\"plan.xml\""), std::string::npos);
  EXPECT_NE(xml_text.find("<context>Budget</context>"), std::string::npos);
  // Full markup embedded, including nested intense markup and the table —
  // but not the next section.
  EXPECT_NE(xml_text.find("<b>100</b>"), std::string::npos);
  EXPECT_NE(xml_text.find("<row>data</row>"), std::string::npos);
  EXPECT_EQ(xml_text.find("Q3"), std::string::npos);
}

TEST_F(ComposeTest, DocumentLevelHitsAreReferences) {
  auto q = ParseXdbQuery("content=thousand");
  ASSERT_TRUE(q.ok());
  QueryExecutor executor(store_.get());
  auto hits = executor.Execute(*q);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  auto composed = ComposeResults(*store_, *q, *hits);
  ASSERT_TRUE(composed.ok());
  std::string xml_text = xml::Serialize(*composed);
  EXPECT_NE(xml_text.find("docid=\"1\""), std::string::npos);
  EXPECT_EQ(xml_text.find("<context>"), std::string::npos);
}

TEST_F(ComposeTest, EmptyHitsStillWellFormed) {
  auto q = ParseXdbQuery("context=Nothing");
  ASSERT_TRUE(q.ok());
  auto composed = ComposeResults(*store_, *q, {});
  ASSERT_TRUE(composed.ok());
  std::string xml_text = xml::Serialize(*composed);
  EXPECT_NE(xml_text.find("count=\"0\""), std::string::npos);
  // Round-trips through the parser.
  EXPECT_TRUE(xml::ParseXml(xml_text).ok());
}

}  // namespace
}  // namespace netmark::query
