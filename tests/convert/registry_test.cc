#include "convert/registry.h"

#include <gtest/gtest.h>

#include <string>

namespace netmark::convert {
namespace {

TEST(RegistryTest, FileExtensionExtraction) {
  EXPECT_EQ(FileExtension("report.txt"), "txt");
  EXPECT_EQ(FileExtension("REPORT.TXT"), "txt");
  EXPECT_EQ(FileExtension("a/b/c.html"), "html");
  EXPECT_EQ(FileExtension("noext"), "");
  EXPECT_EQ(FileExtension("dir.with.dots/noext"), "");
  EXPECT_EQ(FileExtension("archive.tar.gz"), "gz");
}

TEST(RegistryTest, SelectsByExtension) {
  ConverterRegistry registry = ConverterRegistry::Default();
  auto conv = registry.Select("x.md", "anything");
  ASSERT_TRUE(conv.ok());
  EXPECT_EQ((*conv)->format(), "md");
  EXPECT_EQ((*registry.Select("x.doc", ""))->format(), "nrt");
  EXPECT_EQ((*registry.Select("x.pdf", ""))->format(), "nrt");
  EXPECT_EQ((*registry.Select("x.csv", ""))->format(), "csv");
  EXPECT_EQ((*registry.Select("x.html", ""))->format(), "html");
  EXPECT_EQ((*registry.Select("x.xml", ""))->format(), "xml");
}

TEST(RegistryTest, SniffsContentWhenNoExtension) {
  ConverterRegistry registry = ConverterRegistry::Default();
  EXPECT_EQ((*registry.Select("data", "<?xml version=\"1.0\"?><r/>"))->format(),
            "xml");
  EXPECT_EQ((*registry.Select("page", "<!DOCTYPE html><html></html>"))->format(),
            "html");
  EXPECT_EQ((*registry.Select("notes", "# Title\n\n- item\n- item\n"))->format(),
            "md");
  EXPECT_EQ((*registry.Select("rich", ".font 16 bold\nHeading\n"))->format(), "nrt");
  EXPECT_EQ((*registry.Select("sheet", "a,b\n1,2\n3,4\n"))->format(), "csv");
  EXPECT_EQ((*registry.Select("plain", "just ordinary words"))->format(), "txt");
}

TEST(RegistryTest, BinaryGarbageRejected) {
  ConverterRegistry registry = ConverterRegistry::Default();
  std::string binary("\x7f"
                     "ELF\0\0\0\0",
                     8);
  EXPECT_TRUE(registry.Select("blob", binary).status().IsNotFound());
}

TEST(RegistryTest, ConvertEndToEnd) {
  ConverterRegistry registry = ConverterRegistry::Default();
  auto doc = registry.Convert("r.txt", "OVERVIEW\nThe shuttle flew.\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_NE(doc->TextContent(doc->root()).find("shuttle"), std::string::npos);
  // Errors carry the file and format context.
  auto bad = registry.Convert("b.doc", ".font notanumber\nx\n");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("b.doc"), std::string::npos);
}

// Untrusted nesting is bounded (xml::kMaxNestingDepth): 200,000 levels of
// XML, HTML or JSON are a ParseError, not a stack overflow, while 1,000
// levels still convert.
TEST(RegistryTest, DeeplyNestedInputsAreParseErrors) {
  ConverterRegistry registry = ConverterRegistry::Default();
  struct Case {
    const char* file_name;
    const char* open;
    const char* leaf;
    const char* close;
  };
  for (const Case& c : {Case{"deep.xml", "<a>", "x", "</a>"},
                        Case{"deep.html", "<div>", "x", "</div>"},
                        Case{"deep.json", "[", "1", "]"}}) {
    auto nested = [&c](int depth) {
      std::string out;
      for (int i = 0; i < depth; ++i) out += c.open;
      out += c.leaf;
      for (int i = 0; i < depth; ++i) out += c.close;
      return out;
    };
    auto deep = registry.Convert(c.file_name, nested(200000));
    ASSERT_FALSE(deep.ok()) << c.file_name;
    EXPECT_TRUE(deep.status().IsParseError()) << deep.status().ToString();
    auto shallow = registry.Convert(c.file_name, nested(1000));
    EXPECT_TRUE(shallow.ok()) << shallow.status().ToString();
  }
}

TEST(RegistryTest, SupportedFormatsListsAll) {
  ConverterRegistry registry = ConverterRegistry::Default();
  auto formats = registry.SupportedFormats();
  EXPECT_EQ(formats.size(), 7u);
}

}  // namespace
}  // namespace netmark::convert
