// A store with one section body on a corrupted page, shared by the executor,
// server and federation tests of quarantine containment.
//
// "Alpha" is a clean section. "Beta"'s first paragraph (which mentions
// Alpha) nearly fills a page of its own, pushing the second paragraph — the
// rest of the Beta content run — onto the next page, which is then
// corrupted on disk. A read of that page fails its checksum and the page is
// quarantined.

#ifndef NETMARK_TESTS_SUPPORT_QUARANTINED_STORE_H_
#define NETMARK_TESTS_SUPPORT_QUARANTINED_STORE_H_

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "storage/page.h"
#include "xml/parser.h"
#include "xmlstore/xml_store.h"

namespace netmark::testing_support {

inline int64_t InsertMarkup(xmlstore::XmlStore& store, const std::string& name,
                            const std::string& markup) {
  auto doc = xml::ParseXml(markup);
  EXPECT_TRUE(doc.ok());
  xmlstore::DocumentInfo info;
  info.file_name = name;
  auto id = store.InsertDocument(*doc, info);
  EXPECT_TRUE(id.ok());
  return id.ok() ? *id : 0;
}

/// Builds the store in `dir` and corrupts Beta's second paragraph on disk.
/// Reopen the store afterwards; wrap the call in ASSERT_NO_FATAL_FAILURE.
inline void BuildQuarantinedStore(const std::filesystem::path& dir) {
  auto store = xmlstore::XmlStore::Open(dir.string());
  ASSERT_TRUE(store.ok());
  std::string filler;
  while (filler.size() < 8100) filler += "filler ";
  InsertMarkup(**store, "alpha.xml", "<doc><h1>Alpha</h1><p>alpha body</p></doc>");
  int64_t beta = InsertMarkup(**store, "beta.xml",
                              "<doc><h1>Beta</h1><p>mentions Alpha " + filler +
                                  "</p><p>second paragraph</p></doc>");
  auto nodes = (*store)->DocumentNodes(beta);
  ASSERT_TRUE(nodes.ok());
  ASSERT_EQ(nodes->size(), 7u);
  const storage::PageId heading_page = (*nodes)[1].first.page;
  const storage::PageId mention_page = (*nodes)[4].first.page;
  const storage::PageId second_page = (*nodes)[5].first.page;
  ASSERT_EQ((*nodes)[5].second.node_name, "p");
  ASSERT_NE(second_page, heading_page);
  ASSERT_NE(second_page, mention_page);
  store->reset();  // checkpoints: the heap file holds every page

  std::fstream f(dir / "XML.heap", std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  const auto offset =
      static_cast<std::streamoff>(second_page * storage::kPageSize + 100);
  char c = 0;
  f.seekg(offset);
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x40);
  f.seekp(offset);
  f.write(&c, 1);
}

}  // namespace netmark::testing_support

#endif  // NETMARK_TESTS_SUPPORT_QUARANTINED_STORE_H_
