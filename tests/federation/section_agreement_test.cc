// One definition of a section: for every CONTEXT node of a stored document,
// the section the store reads by RowId links (xmlstore::BuildSection) equals
// the one augmentation finds by sibling links in the reconstructed DOM
// (federation::ExtractSections) — heading, body text and body markup, in
// document order — over a seeded MixedCorpus in all six input formats.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "common/temp_dir.h"
#include "convert/registry.h"
#include "federation/augment.h"
#include "query/result_set.h"
#include "workload/corpus.h"
#include "xmlstore/context_walk.h"

namespace netmark::federation {
namespace {

struct ReadSection {
  std::string heading;
  std::string text;
  std::string markup;
};

// The store's sections of `doc_id`, one per CONTEXT row, in NODEID order.
std::vector<ReadSection> StoreSections(const xmlstore::XmlStore& store, int64_t doc_id) {
  std::vector<ReadSection> out;
  auto nodes = store.DocumentNodes(doc_id);
  EXPECT_TRUE(nodes.ok());
  if (!nodes.ok()) return out;
  for (const auto& [rowid, rec] : *nodes) {
    if (!rec.is_context()) continue;
    auto built = xmlstore::BuildSection(store, rowid);
    EXPECT_TRUE(built.ok() && built->has_value()) << rec.node_name;
    if (!built.ok() || !built->has_value()) continue;
    xmlstore::Section& section = **built;
    query::Body body{{query::Fragment::Whole(
        std::make_shared<const xml::Document>(std::move(section.body)))}};
    out.push_back({section.heading, body.Text(), body.Markup()});
  }
  return out;
}

// The sections augmentation extracts from `doc`.
std::vector<ReadSection> DomSections(std::shared_ptr<const xml::Document> doc) {
  std::vector<ReadSection> out;
  for (const DomSection& section : ExtractSections(*doc)) {
    query::Body body{{query::Fragment{doc, section.first, section.end}}};
    out.push_back({section.heading, body.Text(), body.Markup()});
  }
  return out;
}

TEST(SectionAgreementTest, StoreAndDomReadTheSameSectionsInEveryFormat) {
  const convert::ConverterRegistry registry = convert::ConverterRegistry::Default();
  for (uint64_t seed : {11u, 12u, 13u}) {
    auto dir = TempDir::Make("section_agreement");
    ASSERT_TRUE(dir.ok());
    auto store = xmlstore::XmlStore::Open(dir->str());
    ASSERT_TRUE(store.ok());
    std::set<std::string> formats;
    size_t sections = 0;
    for (const workload::GeneratedDoc& generated :
         workload::CorpusGenerator(seed).MixedCorpus(60)) {
      SCOPED_TRACE(generated.file_name + " seed " + std::to_string(seed));
      formats.insert(convert::FileExtension(generated.file_name));
      auto converted = registry.Convert(generated.file_name, generated.content);
      ASSERT_TRUE(converted.ok()) << converted.status().ToString();
      xmlstore::DocumentInfo info;
      info.file_name = generated.file_name;
      auto doc_id = (*store)->InsertDocument(*converted, info);
      ASSERT_TRUE(doc_id.ok());
      auto rebuilt = (*store)->Reconstruct(*doc_id);
      ASSERT_TRUE(rebuilt.ok());

      std::vector<ReadSection> from_store = StoreSections(**store, *doc_id);
      std::vector<ReadSection> from_dom =
          DomSections(std::make_shared<const xml::Document>(std::move(*rebuilt)));
      ASSERT_EQ(from_store.size(), from_dom.size());
      for (size_t i = 0; i < from_store.size(); ++i) {
        EXPECT_EQ(from_store[i].heading, from_dom[i].heading) << i;
        EXPECT_EQ(from_store[i].text, from_dom[i].text) << i;
        EXPECT_EQ(from_store[i].markup, from_dom[i].markup) << i;
      }
      sections += from_store.size();
    }
    EXPECT_EQ(formats.size(), 6u);
    EXPECT_GT(sections, 60u);
  }
}

}  // namespace
}  // namespace netmark::federation
