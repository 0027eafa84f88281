#include <gtest/gtest.h>

#include "convert/csv_converter.h"
#include "convert/html_converter.h"
#include "convert/markdown_converter.h"
#include "convert/nrt_converter.h"
#include "convert/text_converter.h"
#include "federation/augment.h"
#include "xml/serializer.h"

namespace netmark::convert {
namespace {

ConvertContext Ctx(const std::string& name) {
  ConvertContext ctx;
  ctx.file_name = name;
  return ctx;
}

// Extracted sections make converter assertions format-independent.
std::vector<federation::DomSection> Sections(const xml::Document& doc) {
  return federation::ExtractSections(doc);
}

// A section's body text: the run rule the store's sections use too.
std::string Text(const xml::Document& doc, const federation::DomSection& section) {
  return doc.JoinedText(section.first, section.end);
}

TEST(TextConverterTest, InfersSectionsFromHeadingLines) {
  TextConverter conv;
  auto doc = conv.Convert(
      "INTRODUCTION\n"
      "Seamless access is hard.\n"
      "Still the intro.\n"
      "\n"
      "2. Budget Summary\n"
      "The budget is 100 thousand.\n",
      Ctx("report.txt"));
  ASSERT_TRUE(doc.ok());
  auto sections = Sections(*doc);
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].heading, "INTRODUCTION");
  EXPECT_NE(Text(*doc, sections[0]).find("Seamless access"), std::string::npos);
  EXPECT_EQ(sections[1].heading, "2. Budget Summary");
  EXPECT_NE(Text(*doc, sections[1]).find("100 thousand"), std::string::npos);
}

TEST(TextConverterTest, PreambleBeforeFirstHeadingKept) {
  TextConverter conv;
  auto doc = conv.Convert("plain preamble text here.\n\nOVERVIEW\nbody\n",
                          Ctx("x.txt"));
  ASSERT_TRUE(doc.ok());
  std::string all = doc->TextContent(doc->root());
  EXPECT_NE(all.find("plain preamble"), std::string::npos);
}

TEST(TextConverterTest, EmitsProvenanceMeta) {
  TextConverter conv;
  auto doc = conv.Convert("hello world.\n", Ctx("prov.txt"));
  ASSERT_TRUE(doc.ok());
  std::string xml = xml::Serialize(*doc);
  EXPECT_NE(xml.find("netmark:meta"), std::string::npos);
  EXPECT_NE(xml.find("prov.txt"), std::string::npos);
}

TEST(MarkdownConverterTest, HeadingsListsEmphasisCode) {
  MarkdownConverter conv;
  auto doc = conv.Convert(
      "# Risk Assessment\n"
      "\n"
      "Memo about **thermal** risks with `code`.\n"
      "\n"
      "## Mitigation\n"
      "\n"
      "- first item\n"
      "- second *emphasized* item\n"
      "\n"
      "```\nraw code block\n```\n",
      Ctx("memo.md"));
  ASSERT_TRUE(doc.ok());
  auto sections = Sections(*doc);
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].heading, "Risk Assessment");
  EXPECT_EQ(sections[1].heading, "Mitigation");
  std::string markup = xml::Serialize(*doc);
  EXPECT_NE(markup.find("<b>thermal</b>"), std::string::npos);
  EXPECT_NE(markup.find("<code>code</code>"), std::string::npos);
  EXPECT_NE(markup.find("<li>first item</li>"), std::string::npos);
  EXPECT_NE(markup.find("<em>emphasized</em>"), std::string::npos);
  EXPECT_NE(markup.find("raw code block"), std::string::npos);
}

TEST(HtmlConverterTest, ParsesMessyHtmlStructurally) {
  HtmlConverter conv;
  auto doc = conv.Convert(
      "<HTML><BODY><H1>Anomaly Description</H1><P>The engine failed."
      "<H1>Disposition</H1><P>Closed.</BODY></HTML>",
      Ctx("a.html"));
  ASSERT_TRUE(doc.ok());
  auto sections = Sections(*doc);
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].heading, "Anomaly Description");
  EXPECT_NE(Text(*doc, sections[0]).find("engine failed"), std::string::npos);
}

TEST(XmlConverterTest, StrictThenTolerant) {
  XmlConverter conv;
  auto ok = conv.Convert("<doc><context>T</context></doc>", Ctx("d.xml"));
  ASSERT_TRUE(ok.ok());
  // Near-XML falls back to the tolerant parser instead of erroring.
  auto tolerant = conv.Convert("<doc><context>T</doc>", Ctx("d.xml"));
  ASSERT_TRUE(tolerant.ok());
}

TEST(CsvParserTest, QuotedFieldsAndEmbeddedSeparators) {
  auto rows = ParseCsv("a,b,c\n\"x,y\",\"he said \"\"hi\"\"\",plain\n");
  ASSERT_EQ(rows.size(), 2u);
  ASSERT_EQ(rows[1].size(), 3u);
  EXPECT_EQ(rows[1][0], "x,y");
  EXPECT_EQ(rows[1][1], "he said \"hi\"");
  EXPECT_EQ(rows[1][2], "plain");
}

TEST(CsvParserTest, CrLfAndEmptyLines) {
  auto rows = ParseCsv("h1,h2\r\n\r\nv1,v2\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1][1], "v2");
}

TEST(CsvConverterTest, RowsBecomeNamedCells) {
  CsvConverter conv;
  auto doc = conv.Convert("task,amount\nalpha,100\nbeta,200\n", Ctx("b.csv"));
  ASSERT_TRUE(doc.ok());
  std::string markup = xml::Serialize(*doc);
  EXPECT_NE(markup.find("<cell name=\"task\">alpha</cell>"), std::string::npos);
  EXPECT_NE(markup.find("<cell name=\"amount\">200</cell>"), std::string::npos);
  // The sheet is one section titled by the file.
  auto sections = Sections(*doc);
  ASSERT_EQ(sections.size(), 1u);
  EXPECT_EQ(sections[0].heading, "b.csv");
}

TEST(NrtConverterTest, FontSizeDrivesHeadings) {
  NrtConverter conv;
  auto doc = conv.Convert(
      ".font 24 bold\n"
      "Proposal Title Here\n"
      ".font 11\n"
      "Body paragraph one.\n"
      "\n"
      ".font 16 bold\n"
      "Budget\n"
      ".font 11\n"
      "The requested amount is 250 thousand dollars.\n",
      Ctx("p.doc"));
  ASSERT_TRUE(doc.ok());
  auto sections = Sections(*doc);
  ASSERT_EQ(sections.size(), 2u);
  EXPECT_EQ(sections[0].heading, "Proposal Title Here");
  EXPECT_EQ(sections[1].heading, "Budget");
  EXPECT_NE(Text(*doc, sections[1]).find("250 thousand"), std::string::npos);
}

TEST(NrtConverterTest, BoldBodyBecomesIntenseMarkup) {
  NrtConverter conv;
  auto doc = conv.Convert(
      ".font 11\nplain text.\n\n.font 11 bold\nvery important warning.\n",
      Ctx("w.doc"));
  ASSERT_TRUE(doc.ok());
  std::string markup = xml::Serialize(*doc);
  EXPECT_NE(markup.find("<b>very important warning.</b>"), std::string::npos);
}

TEST(NrtConverterTest, MetaDirectivesBecomeSimulationNodes) {
  NrtConverter conv;
  auto doc = conv.Convert(".meta division Science\n.font 11\nbody.\n", Ctx("m.doc"));
  ASSERT_TRUE(doc.ok());
  std::string markup = xml::Serialize(*doc);
  EXPECT_NE(markup.find("division=\"Science\""), std::string::npos);
}

TEST(NrtConverterTest, BadFontDirectiveIsError) {
  NrtConverter conv;
  EXPECT_TRUE(conv.Convert(".font big\nx\n", Ctx("bad.doc")).status().IsParseError());
}

}  // namespace
}  // namespace netmark::convert
