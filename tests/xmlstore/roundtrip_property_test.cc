// Property test: random documents survive store → reconstruct exactly, and
// link structure stays navigable.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/temp_dir.h"
#include "xml/serializer.h"
#include "xmlstore/xml_store.h"

namespace netmark::xmlstore {
namespace {

// Builds a random document with headings, nested elements, attributes, text.
xml::Document RandomDocument(netmark::Rng* rng, int max_nodes) {
  xml::Document doc;
  const std::vector<std::string> tags = {"p", "div", "span", "section", "table",
                                         "li", "note"};
  const std::vector<std::string> headers = {"h1", "h2", "h3", "context", "title"};
  const std::vector<std::string> words = {"budget",  "shuttle", "engine", "anomaly",
                                          "mission", "report",  "nasa",   "proposal"};
  xml::NodeId root = doc.CreateElement("doc");
  doc.AppendChild(doc.root(), root);
  std::vector<xml::NodeId> open = {root};
  int nodes = 1;
  while (nodes < max_nodes) {
    xml::NodeId parent = open[rng->Uniform(open.size())];
    double dice = rng->UniformDouble();
    if (dice < 0.35) {
      std::string text;
      size_t len = 1 + rng->Uniform(8);
      for (size_t i = 0; i < len; ++i) {
        if (i) text += ' ';
        text += words[rng->Uniform(words.size())];
      }
      doc.AppendChild(parent, doc.CreateText(text));
    } else if (dice < 0.5) {
      xml::NodeId h = doc.CreateElement(headers[rng->Uniform(headers.size())]);
      doc.AppendChild(parent, h);
      doc.AppendChild(h, doc.CreateText(words[rng->Uniform(words.size())]));
      ++nodes;
    } else {
      xml::NodeId el = doc.CreateElement(tags[rng->Uniform(tags.size())]);
      if (rng->Chance(0.4)) {
        doc.AddAttribute(el, "id", std::to_string(rng->Uniform(1000)));
      }
      if (rng->Chance(0.2)) {
        doc.AddAttribute(el, "class", words[rng->Uniform(words.size())]);
      }
      doc.AppendChild(parent, el);
      if (open.size() < 12 && rng->Chance(0.7)) open.push_back(el);
    }
    ++nodes;
  }
  return doc;
}

class StoreRoundTripProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StoreRoundTripProperty, StoreReconstructIsIdentity) {
  auto dir = netmark::TempDir::Make("roundtrip");
  ASSERT_TRUE(dir.ok());
  auto store = XmlStore::Open(dir->str());
  ASSERT_TRUE(store.ok());

  netmark::Rng rng(GetParam());
  std::vector<std::pair<int64_t, xml::Document>> originals;
  for (int d = 0; d < 8; ++d) {
    xml::Document doc = RandomDocument(&rng, 10 + static_cast<int>(rng.Uniform(120)));
    DocumentInfo info;
    info.file_name = "doc" + std::to_string(d) + ".xml";
    auto id = (*store)->InsertDocument(doc, info);
    ASSERT_TRUE(id.ok());
    originals.emplace_back(*id, std::move(doc));
  }
  for (const auto& [id, original] : originals) {
    auto rebuilt = (*store)->Reconstruct(id);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_TRUE(xml::Document::SubtreeEquals(original, original.root(), *rebuilt,
                                             rebuilt->root()))
        << "doc " << id << "\noriginal: " << xml::Serialize(original)
        << "\nrebuilt: " << xml::Serialize(*rebuilt);
  }
}

TEST_P(StoreRoundTripProperty, SiblingChainsCoverAllChildren) {
  auto dir = netmark::TempDir::Make("chains");
  ASSERT_TRUE(dir.ok());
  auto store = XmlStore::Open(dir->str());
  ASSERT_TRUE(store.ok());

  netmark::Rng rng(GetParam() * 31 + 7);
  xml::Document doc = RandomDocument(&rng, 150);
  DocumentInfo info;
  info.file_name = "chains.xml";
  auto id = (*store)->InsertDocument(doc, info);
  ASSERT_TRUE(id.ok());

  auto nodes = (*store)->DocumentNodes(*id);
  ASSERT_TRUE(nodes.ok());
  for (const auto& [rowid, rec] : *nodes) {
    if (rec.is_text()) continue;
    auto kids = (*store)->Children(rowid);
    ASSERT_TRUE(kids.ok());
    if (kids->empty()) continue;
    // Walking the forward chain from the first child must enumerate exactly
    // the index-join children, in order; the backward chain the reverse.
    std::vector<storage::RowId> forward;
    storage::RowId cur = (*kids)[0];
    while (cur.valid()) {
      forward.push_back(cur);
      auto r = (*store)->ReadNode(cur);
      ASSERT_TRUE(r.ok());
      cur = r->sibling_rowid;
    }
    EXPECT_EQ(forward, *kids);
    std::vector<storage::RowId> backward;
    cur = kids->back();
    while (cur.valid()) {
      backward.push_back(cur);
      auto r = (*store)->ReadNode(cur);
      ASSERT_TRUE(r.ok());
      cur = r->prev_rowid;
    }
    std::vector<storage::RowId> reversed(kids->rbegin(), kids->rend());
    EXPECT_EQ(backward, reversed);
  }
}

// The DOM nodes under `node` (itself included) in pre-order.
void PreOrder(const xml::Document& doc, xml::NodeId node,
              std::vector<xml::NodeId>* out) {
  out->push_back(node);
  for (xml::NodeId c = doc.first_child(node); c != xml::kInvalidNode;
       c = doc.next_sibling(c)) {
    PreOrder(doc, c, out);
  }
}

TEST_P(StoreRoundTripProperty, SubtreeWalksMatchWholeDocumentRebuild) {
  auto dir = netmark::TempDir::Make("subtrees");
  ASSERT_TRUE(dir.ok());
  auto store = XmlStore::Open(dir->str());
  ASSERT_TRUE(store.ok());

  netmark::Rng rng(GetParam() * 17 + 3);
  xml::Document doc = RandomDocument(&rng, 150);
  DocumentInfo info;
  info.file_name = "subtrees.xml";
  auto id = (*store)->InsertDocument(doc, info);
  ASSERT_TRUE(id.ok());

  // Reconstruct builds the DOM from DocumentNodes' pre-order rows, so the
  // rebuilt DOM in pre-order lines up with those rows one to one.
  auto rebuilt = (*store)->Reconstruct(*id);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  auto nodes = (*store)->DocumentNodes(*id);
  ASSERT_TRUE(nodes.ok());
  std::vector<xml::NodeId> dom;
  for (xml::NodeId c = rebuilt->first_child(rebuilt->root());
       c != xml::kInvalidNode; c = rebuilt->next_sibling(c)) {
    PreOrder(*rebuilt, c, &dom);
  }
  ASSERT_EQ(dom.size(), nodes->size());

  size_t elements = 0;
  for (size_t i = 0; i < dom.size(); ++i) {
    const auto& [rowid, rec] = (*nodes)[i];
    if (rebuilt->kind(dom[i]) != xml::NodeKind::kElement) continue;
    ++elements;
    auto subtree = (*store)->ReconstructSubtree(rowid);
    ASSERT_TRUE(subtree.ok()) << subtree.status().ToString();
    EXPECT_EQ(xml::Serialize(*subtree), xml::Serialize(*rebuilt, dom[i]))
        << "node " << rec.node_id;

    std::vector<xml::NodeId> under;
    PreOrder(*rebuilt, dom[i], &under);
    std::string expected;
    for (xml::NodeId n : under) {
      xml::NodeKind kind = rebuilt->kind(n);
      if (kind != xml::NodeKind::kText && kind != xml::NodeKind::kCData) continue;
      if (!expected.empty()) expected += ' ';
      expected += rebuilt->data(n);
    }
    auto text = (*store)->SubtreeText(rowid);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    EXPECT_EQ(*text, expected) << "node " << rec.node_id;
  }
  EXPECT_GT(elements, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreRoundTripProperty,
                         ::testing::Values(1, 7, 42, 1234, 987654));

}  // namespace
}  // namespace netmark::xmlstore
