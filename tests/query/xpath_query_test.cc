// Tests for the xpath= XDB query mode ("full-fledged XML querying",
// paper §2.1.5).

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "query/compose.h"
#include "query/executor.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace netmark::query {
namespace {

class XPathQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = netmark::TempDir::Make("xpathq");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<netmark::TempDir>(std::move(*dir));
    auto store = xmlstore::XmlStore::Open(dir_->str());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    Insert("sheet1.xml",
           "<document><table>"
           "<row n=\"1\"><cell name=\"task\">alpha</cell>"
           "<cell name=\"fy2005\">100</cell></row>"
           "<row n=\"2\"><cell name=\"task\">beta</cell>"
           "<cell name=\"fy2005\">250</cell></row>"
           "</table></document>");
    Insert("sheet2.xml",
           "<document><table>"
           "<row n=\"1\"><cell name=\"task\">gamma shuttle</cell>"
           "<cell name=\"fy2005\">300</cell></row>"
           "</table></document>");
  }

  void Insert(const std::string& name, const char* markup) {
    auto doc = xml::ParseXml(markup);
    ASSERT_TRUE(doc.ok());
    xmlstore::DocumentInfo info;
    info.file_name = name;
    ASSERT_TRUE(store_->InsertDocument(*doc, info).ok());
  }

  std::vector<QueryHit> Run(const std::string& query_string) {
    auto q = ParseXdbQuery(query_string);
    EXPECT_TRUE(q.ok());
    QueryExecutor executor(store_.get());
    auto hits = executor.Execute(*q);
    EXPECT_TRUE(hits.ok()) << hits.status().ToString();
    return hits.ok() ? *hits : std::vector<QueryHit>{};
  }

  std::unique_ptr<netmark::TempDir> dir_;
  std::unique_ptr<xmlstore::XmlStore> store_;
};

TEST_F(XPathQueryTest, SelectsNodesAcrossAllDocuments) {
  auto hits = Run("xpath=//row");
  EXPECT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].file_name, "sheet1.xml");
  EXPECT_EQ(hits[2].file_name, "sheet2.xml");
}

TEST_F(XPathQueryTest, PredicatesAndAttributesWork) {
  auto hits = Run("xpath=//cell%5B%40name%3D%27fy2005%27%5D");  // //cell[@name='fy2005']
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].text, "100");
  EXPECT_EQ(hits[1].text, "250");
  EXPECT_EQ(hits[2].text, "300");
  EXPECT_NE(hits[0].body->Markup().find("<cell name=\"fy2005\">100</cell>"),
            std::string::npos);
}

TEST_F(XPathQueryTest, ContentKeyPreselectsDocuments) {
  // Only sheet2 mentions "shuttle"; xpath applies within it.
  auto hits = Run("xpath=//row&content=shuttle");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file_name, "sheet2.xml");
}

TEST_F(XPathQueryTest, DocScopeApplies) {
  auto hits = Run("xpath=//row&doc=1");
  EXPECT_EQ(hits.size(), 2u);
}

TEST_F(XPathQueryTest, CombiningWithContextIsRejected) {
  QueryExecutor executor(store_.get());
  XdbQuery q;
  q.xpath = "//row";
  q.context = "Budget";
  EXPECT_TRUE(executor.Execute(q).status().IsInvalidArgument());
}

TEST_F(XPathQueryTest, BadXPathIsAnError) {
  QueryExecutor executor(store_.get());
  XdbQuery q;
  q.xpath = "//row[";
  EXPECT_TRUE(executor.Execute(q).status().IsParseError());
}

TEST_F(XPathQueryTest, ComposedResultsEmbedFragments) {
  auto q = ParseXdbQuery("xpath=//row%5B%40n%3D%272%27%5D");  // //row[@n='2']
  ASSERT_TRUE(q.ok());
  QueryExecutor executor(store_.get());
  auto hits = executor.Execute(*q);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  auto composed = ComposeResults(*store_, *q, *hits);
  ASSERT_TRUE(composed.ok());
  std::string xml_text = xml::Serialize(*composed);
  EXPECT_NE(xml_text.find("<row n=\"2\">"), std::string::npos);
  EXPECT_NE(xml_text.find("beta"), std::string::npos);
  EXPECT_EQ(xml_text.find("alpha"), std::string::npos);
}

TEST_F(XPathQueryTest, QueryStringRoundTripIncludesXPath) {
  XdbQuery q;
  q.xpath = "//cell[@name='task']";
  auto parsed = ParseXdbQuery(q.ToQueryString());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->xpath, q.xpath);
}

}  // namespace
}  // namespace netmark::query
