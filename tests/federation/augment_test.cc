#include "federation/augment.h"

#include <gtest/gtest.h>

#include "xml/parser.h"
#include "xml/serializer.h"

namespace netmark::federation {
namespace {

// A section's body text: the run rule the store's sections use too.
std::string Text(const xml::Document& doc, const DomSection& section) {
  return doc.JoinedText(section.first, section.end);
}

TEST(AugmentTest, ExtractsFlatSections) {
  auto doc = xml::ParseXml(
      "<html><h1>One</h1><p>first body</p><p>more</p>"
      "<h1>Two</h1><p>second body</p></html>");
  ASSERT_TRUE(doc.ok());
  auto sections = ExtractSections(*doc);
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].heading, "One");
  EXPECT_EQ(Text(*doc, sections[0]), "first body more");
  EXPECT_EQ(sections[1].heading, "Two");
  EXPECT_EQ(Text(*doc, sections[1]), "second body");
  // The content run is a node range in the same DOM, ending at the next
  // heading.
  ASSERT_NE(sections[0].first, xml::kInvalidNode);
  EXPECT_EQ(xml::Serialize(*doc, sections[0].first), "<p>first body</p>");
  EXPECT_EQ(doc->TextContent(sections[0].end), "Two");
  EXPECT_EQ(sections[1].end, xml::kInvalidNode);
}

TEST(AugmentTest, JoinsTextNodesWithSpaces) {
  // The store's rule: `amount<b>100</b>` reads "amount 100", so a content
  // key of 100 matches the section as it does in the store.
  auto doc = xml::ParseXml(
      "<d><h1>Budget<i>FY</i></h1><p>amount<b>100</b>units</p></d>");
  ASSERT_TRUE(doc.ok());
  auto sections = ExtractSections(*doc);
  ASSERT_EQ(sections.size(), 1u);
  EXPECT_EQ(sections[0].heading, "Budget FY");
  EXPECT_EQ(Text(*doc, sections[0]), "amount 100 units");
}

TEST(AugmentTest, UpmarkedContextContentPairs) {
  auto doc = xml::ParseXml(
      "<document><context>Title</context><content>Engine lesson</content>"
      "<context>Lesson</context><content>Inspect often.</content></document>");
  ASSERT_TRUE(doc.ok());
  auto sections = ExtractSections(*doc);
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].heading, "Title");
  EXPECT_EQ(Text(*doc, sections[0]), "Engine lesson");
}

TEST(AugmentTest, NestedHeadingsFoundAtAnyDepth) {
  auto doc = xml::ParseXml(
      "<html><body><div><h2>Deep</h2><p>deep body</p></div></body></html>");
  ASSERT_TRUE(doc.ok());
  auto sections = ExtractSections(*doc);
  ASSERT_EQ(sections.size(), 1u);
  EXPECT_EQ(sections[0].heading, "Deep");
  EXPECT_EQ(Text(*doc, sections[0]), "deep body");
}

TEST(AugmentTest, NoHeadingsMeansNoSections) {
  auto doc = xml::ParseXml("<d><p>just text</p></d>");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(ExtractSections(*doc).empty());
}

TEST(AugmentTest, CustomNodeTypeConfig) {
  xml::NodeTypeConfig cfg;  // empty: nothing is a context tag
  auto doc = xml::ParseXml("<d><h1>Not A Heading Now</h1><p>x</p></d>");
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(ExtractSections(*doc, cfg).empty());
  cfg.AddContextTag("p");
  auto sections = ExtractSections(*doc, cfg);
  ASSERT_EQ(sections.size(), 1u);
  EXPECT_EQ(sections[0].heading, "x");
}

}  // namespace
}  // namespace netmark::federation
