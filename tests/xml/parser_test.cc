#include "xml/parser.h"

#include <gtest/gtest.h>

#include "xml/serializer.h"

namespace netmark::xml {
namespace {

TEST(ParserTest, ParsesSimpleElementTree) {
  auto doc = ParseXml("<a><b>text</b><c/></a>");
  ASSERT_TRUE(doc.ok());
  NodeId a = doc->DocumentElement();
  ASSERT_NE(a, kInvalidNode);
  EXPECT_EQ(doc->name(a), "a");
  auto kids = doc->ChildElements(a);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(doc->name(kids[0]), "b");
  EXPECT_EQ(doc->TextContent(kids[0]), "text");
  EXPECT_EQ(doc->name(kids[1]), "c");
  EXPECT_EQ(doc->first_child(kids[1]), kInvalidNode);
}

TEST(ParserTest, ParsesAttributes) {
  auto doc = ParseXml(R"(<e a="1" b='two' c = "3 &amp; 4"/>)");
  ASSERT_TRUE(doc.ok());
  NodeId e = doc->DocumentElement();
  EXPECT_EQ(doc->GetAttribute(e, "a"), "1");
  EXPECT_EQ(doc->GetAttribute(e, "b"), "two");
  EXPECT_EQ(doc->GetAttribute(e, "c"), "3 & 4");
}

TEST(ParserTest, DecodesEntitiesInText) {
  auto doc = ParseXml("<e>a &lt; b &amp;&amp; c &gt; d &#65;&#x42;</e>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->TextContent(doc->DocumentElement()), "a < b && c > d AB");
}

TEST(ParserTest, KeepsCDataVerbatim) {
  auto doc = ParseXml("<e><![CDATA[<raw> & stuff]]></e>");
  ASSERT_TRUE(doc.ok());
  NodeId e = doc->DocumentElement();
  NodeId cdata = doc->first_child(e);
  ASSERT_NE(cdata, kInvalidNode);
  EXPECT_EQ(doc->kind(cdata), NodeKind::kCData);
  EXPECT_EQ(doc->data(cdata), "<raw> & stuff");
}

TEST(ParserTest, DropsCommentsByDefaultKeepsOnRequest) {
  auto plain = ParseXml("<e><!-- note --><x/></e>");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->Children(plain->DocumentElement()).size(), 1u);

  ParseOptions opts;
  opts.keep_comments = true;
  auto kept = Parse("<e><!-- note --><x/></e>", opts);
  ASSERT_TRUE(kept.ok());
  auto kids = kept->Children(kept->DocumentElement());
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(kept->kind(kids[0]), NodeKind::kComment);
  EXPECT_EQ(kept->data(kids[0]), " note ");
}

TEST(ParserTest, SkipsXmlDeclarationAndDoctype) {
  auto doc = ParseXml(
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE html [ <!ENTITY x \"y\"> ]>\n"
      "<root/>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->name(doc->DocumentElement()), "root");
  // Only the root element should be a child of the document node.
  EXPECT_EQ(doc->Children(doc->root()).size(), 1u);
}

TEST(ParserTest, KeepsNonXmlProcessingInstructions) {
  auto doc = ParseXml("<?xml-stylesheet href=\"s.xsl\"?><root/>");
  ASSERT_TRUE(doc.ok());
  auto kids = doc->Children(doc->root());
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(doc->kind(kids[0]), NodeKind::kProcessingInstruction);
  EXPECT_EQ(doc->name(kids[0]), "xml-stylesheet");
  EXPECT_EQ(doc->data(kids[0]), "href=\"s.xsl\"");
}

TEST(ParserTest, StrictModeRejectsImbalance) {
  EXPECT_TRUE(ParseXml("<a><b></a>").status().IsParseError());
  EXPECT_TRUE(ParseXml("<a>").status().IsParseError());
  EXPECT_TRUE(ParseXml("</a>").status().IsParseError());
  EXPECT_TRUE(ParseXml("<a><!-- unterminated ->").status().IsParseError());
}

TEST(ParserTest, WhitespaceOnlyTextDroppedByDefault) {
  auto doc = ParseXml("<a>\n  <b/>\n  <c/>\n</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->Children(doc->DocumentElement()).size(), 2u);

  ParseOptions opts;
  opts.keep_whitespace_text = true;
  auto kept = Parse("<a>\n  <b/>\n</a>", opts);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->Children(kept->DocumentElement()).size(), 3u);
}

TEST(ParserTest, AdjacentTextMerges) {
  auto doc = ParseXml("<a>one &amp; two</a>");
  ASSERT_TRUE(doc.ok());
  auto kids = doc->Children(doc->DocumentElement());
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_EQ(doc->data(kids[0]), "one & two");
}

// --- HTML tolerance ---

TEST(ParserTest, NestingIsBoundedInBothModes) {
  auto nested = [](size_t depth) {
    std::string out;
    for (size_t i = 0; i < depth; ++i) out += "<e>";
    out += "x";
    for (size_t i = 0; i < depth; ++i) out += "</e>";
    return out;
  };
  for (bool html : {false, true}) {
    ParseOptions options;
    options.html_mode = html;
    EXPECT_TRUE(Parse(nested(kMaxNestingDepth), options).ok()) << html;
    auto deeper = Parse(nested(kMaxNestingDepth + 1), options);
    ASSERT_FALSE(deeper.ok()) << html;
    EXPECT_TRUE(deeper.status().IsParseError()) << html;
    // A self-closing element one level too deep counts too.
    std::string leaf = nested(kMaxNestingDepth);
    leaf.insert(kMaxNestingDepth * 3, "<br/>");
    EXPECT_FALSE(Parse(leaf, options).ok()) << html;
  }
}

TEST(ParserHtmlTest, FoldsTagCaseAndClosesVoids) {
  auto doc = ParseHtml("<DIV><BR><IMG src=x.png></DIV>");
  ASSERT_TRUE(doc.ok());
  NodeId div = doc->DocumentElement();
  EXPECT_EQ(doc->name(div), "div");
  auto kids = doc->ChildElements(div);
  ASSERT_EQ(kids.size(), 2u);
  EXPECT_EQ(doc->name(kids[0]), "br");
  EXPECT_EQ(doc->name(kids[1]), "img");
  EXPECT_EQ(doc->GetAttribute(kids[1], "src"), "x.png");
}

TEST(ParserHtmlTest, ImplicitlyClosesParagraphsAndListItems) {
  auto doc = ParseHtml("<body><p>one<p>two<ul><li>a<li>b</ul></body>");
  ASSERT_TRUE(doc.ok());
  NodeId body = doc->DocumentElement();
  auto kids = doc->ChildElements(body);
  ASSERT_EQ(kids.size(), 3u);  // p, p, ul
  EXPECT_EQ(doc->TextContent(kids[0]), "one");
  EXPECT_EQ(doc->TextContent(kids[1]), "two");
  auto items = doc->ChildElements(kids[2]);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(doc->TextContent(items[0]), "a");
  EXPECT_EQ(doc->TextContent(items[1]), "b");
}

TEST(ParserHtmlTest, IgnoresStrayCloseTagsAndUnclosedElements) {
  auto doc = ParseHtml("<div></span><b>text</div>");
  ASSERT_TRUE(doc.ok());
  NodeId div = doc->DocumentElement();
  EXPECT_EQ(doc->name(div), "div");
  EXPECT_EQ(doc->TextContent(div), "text");
}

TEST(ParserHtmlTest, ScriptContentIsRawText) {
  auto doc = ParseHtml("<html><script>if (a < b && c > d) { x(); }</script></html>");
  ASSERT_TRUE(doc.ok());
  NodeId script = doc->FirstChildElement(doc->DocumentElement(), "script");
  ASSERT_NE(script, kInvalidNode);
  EXPECT_EQ(doc->TextContent(script), "if (a < b && c > d) { x(); }");
}

TEST(ParserHtmlTest, UnquotedAttributeValues) {
  auto doc = ParseHtml("<a href=index.html class=nav>x</a>");
  ASSERT_TRUE(doc.ok());
  NodeId a = doc->DocumentElement();
  EXPECT_EQ(doc->GetAttribute(a, "href"), "index.html");
  EXPECT_EQ(doc->GetAttribute(a, "class"), "nav");
}

TEST(ParserHtmlTest, TableCellsImplicitlyClose) {
  auto doc = ParseHtml("<table><tr><td>1<td>2<tr><td>3</table>");
  ASSERT_TRUE(doc.ok());
  NodeId table = doc->DocumentElement();
  auto rows = doc->ChildElements(table);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(doc->ChildElements(rows[0]).size(), 2u);
  EXPECT_EQ(doc->ChildElements(rows[1]).size(), 1u);
}

// Parse → serialize → parse must be a fixpoint for well-formed XML.
class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, ParseSerializeParseIsFixpoint) {
  auto doc1 = ParseXml(GetParam());
  ASSERT_TRUE(doc1.ok()) << doc1.status().ToString();
  std::string text1 = Serialize(*doc1);
  auto doc2 = ParseXml(text1);
  ASSERT_TRUE(doc2.ok()) << doc2.status().ToString();
  EXPECT_TRUE(Document::SubtreeEquals(*doc1, doc1->root(), *doc2, doc2->root()))
      << "serialized form: " << text1;
  EXPECT_EQ(text1, Serialize(*doc2));
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, RoundTripTest,
    ::testing::Values(
        "<a/>",
        "<a>text</a>",
        "<a><b/><c>x</c><b>y</b></a>",
        R"(<e k="v" empty=""/>)",
        "<e>&lt;escaped&gt; &amp; more</e>",
        "<r><![CDATA[raw <stuff> here]]></r>",
        "<doc><title>T</title><sec><h1>H</h1><p>body text</p></sec></doc>",
        R"(<attr q="it&quot;s"/>)",
        "<deep><l1><l2><l3><l4>x</l4></l3></l2></l1></deep>",
        "<mixed>pre<b>bold</b>post</mixed>"));

}  // namespace
}  // namespace netmark::xml
