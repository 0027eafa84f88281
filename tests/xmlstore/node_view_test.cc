// NodeView: the in-place XML-row decoder every walk hop uses. Round trips
// against NodeRecord's encoding, and hostile bytes (truncations, single-byte
// corruptions, wrong arity or column types) that must come back as
// Corruption or as a decode whose views stay inside the input — never as an
// out-of-bounds read (the sanitizer job runs this file).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/schema.h"
#include "xmlstore/node_record.h"

namespace netmark::xmlstore {
namespace {

using storage::RowId;
using storage::Value;

std::string RandomBytes(netmark::Rng& rng, size_t max_len) {
  std::string out(rng.Uniform(max_len + 1), '\0');
  for (char& c : out) c = static_cast<char>(rng.Uniform(256));
  return out;
}

RowId RandomRowId(netmark::Rng& rng) {
  if (rng.Uniform(4) == 0) return storage::kInvalidRowId;
  return RowId(static_cast<storage::PageId>(rng.Uniform(storage::kInvalidPage)),
               static_cast<uint16_t>(rng.Uniform(1 << 16)));
}

NodeRecord RandomRecord(netmark::Rng& rng) {
  NodeRecord r;
  r.node_id = static_cast<int64_t>(rng.Next());  // either sign
  r.doc_id = rng.UniformInt(-1000, 1000);
  r.parent_rowid = RandomRowId(rng);
  r.parent_node_id = static_cast<int64_t>(rng.Next());
  r.node_type = static_cast<xml::NetmarkNodeType>(rng.UniformInt(1, 5));
  if (rng.Uniform(3) != 0) r.node_name = RandomBytes(rng, 12);
  if (rng.Uniform(3) != 0) r.node_data = RandomBytes(rng, 300);
  r.sibling_rowid = RandomRowId(rng);
  r.prev_rowid = RandomRowId(rng);
  return r;
}

void ExpectSameFields(const NodeView& v, const NodeRecord& r) {
  EXPECT_EQ(v.node_id, r.node_id);
  EXPECT_EQ(v.doc_id, r.doc_id);
  EXPECT_EQ(v.parent_rowid, r.parent_rowid);
  EXPECT_EQ(v.parent_node_id, r.parent_node_id);
  EXPECT_EQ(v.node_type, r.node_type);
  EXPECT_EQ(v.node_name, r.node_name);
  EXPECT_EQ(v.node_data, r.node_data);
  EXPECT_EQ(v.sibling_rowid, r.sibling_rowid);
  EXPECT_EQ(v.prev_rowid, r.prev_rowid);
}

// Decodes `bytes` from an exactly sized heap copy, so a read past the end
// is a heap overflow the sanitizers report. Returns false on a non-OK
// decode, which must be Corruption.
bool DecodeExact(std::string_view bytes) {
  std::unique_ptr<char[]> buf(new char[bytes.size()]);
  std::copy(bytes.begin(), bytes.end(), buf.get());
  std::string_view exact(buf.get(), bytes.size());
  auto v = NodeView::Decode(exact);
  if (!v.ok()) {
    EXPECT_TRUE(v.status().IsCorruption()) << v.status().ToString();
    return false;
  }
  for (std::string_view field : {v->node_name, v->node_data}) {
    if (field.empty()) continue;
    EXPECT_GE(field.data(), exact.data());
    EXPECT_LE(field.data() + field.size(), exact.data() + exact.size());
  }
  return true;
}

TEST(NodeViewTest, SeededRoundTripMatchesNodeRecord) {
  netmark::Rng rng(23);
  for (int i = 0; i < 500; ++i) {
    NodeRecord rec = RandomRecord(rng);
    std::string bytes = storage::EncodeRow(rec.ToRow());
    auto view = NodeView::Decode(bytes);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    ExpectSameFields(*view, rec);
    NodeRecord copy = view->ToRecord();
    EXPECT_EQ(storage::EncodeRow(copy.ToRow()), bytes);
  }
}

TEST(NodeViewTest, EveryStrictPrefixIsCorruption) {
  netmark::Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    std::string bytes = storage::EncodeRow(RandomRecord(rng).ToRow());
    for (size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_FALSE(DecodeExact(std::string_view(bytes).substr(0, len))) << len;
    }
  }
}

TEST(NodeViewTest, EverySingleByteCorruptionDecodesOrIsCorruption) {
  netmark::Rng rng(11);
  for (int i = 0; i < 4; ++i) {
    NodeRecord rec = RandomRecord(rng);
    rec.node_data = RandomBytes(rng, 40);
    std::string bytes = storage::EncodeRow(rec.ToRow());
    for (size_t pos = 0; pos < bytes.size(); ++pos) {
      for (int value = 0; value < 256; ++value) {
        std::string mutated = bytes;
        mutated[pos] = static_cast<char>(value);
        DecodeExact(mutated);
      }
    }
  }
}

TEST(NodeViewTest, WrongArityIsCorruption) {
  netmark::Rng rng(3);
  storage::Row row = RandomRecord(rng).ToRow();
  storage::Row shorter(row.begin(), row.end() - 1);
  EXPECT_TRUE(NodeView::Decode(storage::EncodeRow(shorter)).status().IsCorruption());
  storage::Row longer = row;
  longer.push_back(Value::Int(1));
  EXPECT_TRUE(NodeView::Decode(storage::EncodeRow(longer)).status().IsCorruption());
  EXPECT_TRUE(NodeView::Decode(storage::EncodeRow({})).status().IsCorruption());
}

TEST(NodeViewTest, WrongColumnTypeIsCorruption) {
  NodeRecord rec;
  rec.node_type = xml::NetmarkNodeType::kText;
  storage::Row row = rec.ToRow();
  storage::Row text_id = row;
  text_id[NodeRecord::kNodeId] = Value::Str("7");
  EXPECT_TRUE(NodeView::Decode(storage::EncodeRow(text_id)).status().IsCorruption());
  storage::Row numeric_name = row;
  numeric_name[NodeRecord::kNodeName] = Value::Int(7);
  EXPECT_TRUE(
      NodeView::Decode(storage::EncodeRow(numeric_name)).status().IsCorruption());
  storage::Row bad_type = row;
  bad_type[NodeRecord::kNodeType] = Value::Int((int64_t{1} << 32) + 2);
  EXPECT_TRUE(NodeView::Decode(storage::EncodeRow(bad_type)).status().IsCorruption());
}

}  // namespace
}  // namespace netmark::xmlstore
