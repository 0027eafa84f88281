// The one result contract: Decode reads back everything Encode writes, and
// a hostile or damaged reply — a remote's bytes are untrusted — decodes to a
// value or a clean ParseError, never a crash.

#include "query/result_set.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "xml/serializer.h"

namespace netmark::query {
namespace {

// Characters that exercise escaping in text and attribute values.
std::string RandomText(netmark::Rng& rng, size_t max_len, bool allow_empty = true) {
  static constexpr std::string_view kAlphabet = "ab yz<>&\"'=;#/\t\n\xC3\xA9";
  const size_t len = rng.Uniform(max_len + 1);
  std::string out;
  for (size_t i = 0; i < len; ++i) {
    char c = kAlphabet[rng.Uniform(kAlphabet.size())];
    if (c == '\xC3' || c == '\xA9') {
      out += "\xC3\xA9";  // keep the two-byte sequence whole
    } else {
      out += c;
    }
  }
  if (out.empty() && !allow_empty) out = "x";
  return out;
}

// Appends up to `width` children under `parent`: elements with attributes
// alternating with non-empty text, so no two text nodes are adjacent (XML
// cannot mark the boundary between them).
void RandomForest(netmark::Rng& rng, xml::Document& doc, xml::NodeId parent,
                  int depth) {
  const size_t width = rng.Uniform(4);
  bool text_next = false;
  for (size_t i = 0; i < width; ++i) {
    if (text_next) {
      doc.AppendChild(parent, doc.CreateText(RandomText(rng, 12, false)));
    } else {
      xml::NodeId el = doc.CreateElement(rng.Uniform(2) == 0 ? "p" : "b");
      if (rng.Uniform(2) == 0) doc.AddAttribute(el, "class", RandomText(rng, 6));
      if (depth > 0) RandomForest(rng, doc, el, depth - 1);
      doc.AppendChild(parent, el);
    }
    text_next = !text_next;
  }
}

// Each fragment starts with an element, so fragments never merge text
// across their boundary.
Body RandomBody(netmark::Rng& rng) {
  Body body;
  const size_t fragments = rng.Uniform(3);
  for (size_t f = 0; f < fragments; ++f) {
    xml::Document doc;
    RandomForest(rng, doc, doc.root(), 2);
    body.fragments.push_back(
        Fragment::Whole(std::make_shared<const xml::Document>(std::move(doc))));
  }
  return body;
}

ResultSet RandomSet(netmark::Rng& rng) {
  ResultSet set;
  set.query = RandomText(rng, 20);
  const size_t hits = rng.Uniform(6);
  for (size_t i = 0; i < hits; ++i) {
    ResultHit hit;
    hit.file_name = RandomText(rng, 10);
    hit.doc_id = rng.UniformInt(-5, 1'000'000'000'000);
    if (rng.Uniform(2) == 0) hit.source = RandomText(rng, 8, false);
    switch (rng.Uniform(4)) {
      case 0:  // section hit
        hit.heading = RandomText(rng, 12);
        hit.body = RandomBody(rng);
        break;
      case 1:  // content-only hit
        hit.snippet = Snippet{RandomText(rng, 8), RandomText(rng, 16)};
        break;
      case 2:  // XPath hit
        hit.body = RandomBody(rng);
        hit.snippet = Snippet{"", RandomText(rng, 16)};
        break;
      default:  // a content-only source's document, or a bare reference
        if (rng.Uniform(2) == 0) hit.body = RandomBody(rng);
        break;
    }
    set.hits.push_back(std::move(hit));
  }
  if (rng.Uniform(3) == 0) set.quarantined = rng.Uniform(4);
  const size_t sources = rng.Uniform(4);
  for (size_t i = 0; i < sources; ++i) {
    SourceOutcome outcome;
    outcome.source = RandomText(rng, 8, false);
    outcome.state = static_cast<SourceState>(rng.Uniform(5));
    outcome.attempts = static_cast<int>(rng.Uniform(4));
    outcome.latency_micros = static_cast<int64_t>(rng.Uniform(5000)) * 1000;
    outcome.hits = rng.Uniform(10);
    if (outcome.state != SourceState::kOk) outcome.error = RandomText(rng, 12);
    set.sources.push_back(std::move(outcome));
  }
  return set;
}

TEST(ResultSetTest, DecodeInvertsEncodeOverRandomSets) {
  netmark::Rng rng(0x5E7);
  for (int round = 0; round < 500; ++round) {
    ResultSet set = RandomSet(rng);
    const std::string wire = xml::Serialize(Encode(set));
    auto decoded = Decode(wire);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString() << "\n" << wire;
    ASSERT_TRUE(*decoded == set) << "round " << round << ": " << wire << "\nre-encoded: "
                                 << xml::Serialize(Encode(*decoded));
  }
}

TEST(ResultSetTest, EncodesEveryHitKindByOneRule) {
  auto doc = std::make_shared<xml::Document>();
  xml::NodeId p = doc->CreateElement("p");
  doc->AppendChild(p, doc->CreateText("body"));
  doc->AppendChild(doc->root(), p);
  const Body body{{Fragment::Whole(doc)}};

  ResultSet set;
  set.query = "q";
  set.hits.push_back({"s.xml", 1, "", "Head", body, std::nullopt});
  set.hits.push_back({"c.xml", 2, "", std::nullopt, std::nullopt, Snippet{"Head", "hit"}});
  set.hits.push_back({"x.xml", 3, "", std::nullopt, body, Snippet{"", "body"}});
  set.hits.push_back({"d.xml", 4, "lessons", std::nullopt, body, std::nullopt});
  EXPECT_EQ(xml::Serialize(Encode(set)),
            "<results query=\"q\" count=\"4\" complete=\"true\">"
            "<result doc=\"s.xml\" docid=\"1\"><context>Head</context>"
            "<content><p>body</p></content></result>"
            "<result doc=\"c.xml\" docid=\"2\"><snippet section=\"Head\">hit</snippet>"
            "</result>"
            "<result doc=\"x.xml\" docid=\"3\"><content><p>body</p></content>"
            "<snippet>body</snippet></result>"
            "<result doc=\"d.xml\" docid=\"4\" source=\"lessons\">"
            "<content><p>body</p></content></result>"
            "</results>");
}

TEST(ResultSetTest, PartialSourceAndQuarantineMakeTheAnswerIncomplete) {
  ResultSet set;
  set.query = "context=Beta";
  set.quarantined = 2;
  set.sources.push_back({"local", SourceState::kPartial, 1, 3000, 0, ""});
  EXPECT_FALSE(set.complete());
  const std::string wire = xml::Serialize(Encode(set));
  EXPECT_EQ(wire,
            "<results query=\"context=Beta\" count=\"0\" complete=\"false\" "
            "quarantined=\"2\"><sources><source name=\"local\" outcome=\"partial\" "
            "attempts=\"1\" latency_ms=\"3\" hits=\"0\"/></sources></results>");
  auto decoded = Decode(wire);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->complete());
  EXPECT_EQ(decoded->quarantined, 2u);
  ASSERT_EQ(decoded->sources.size(), 1u);
  EXPECT_EQ(decoded->sources[0].state, SourceState::kPartial);
}

TEST(ResultSetTest, TraceBlockDecodesIntoRemoteSpans) {
  std::vector<observability::SpanData> spans(2);
  spans[0].id = 0;
  spans[0].name = "xdb";
  spans[0].start_micros = 10;
  spans[0].end_micros = 60;
  spans[1].id = 1;
  spans[1].parent = 0;
  spans[1].name = "execute";
  spans[1].start_micros = 20;
  spans[1].annotations.emplace_back("cache", "miss");
  ResultSet set;
  xml::Document doc = Encode(set);
  AppendTraceElement(doc, doc.DocumentElement(), spans);
  std::vector<observability::SpanData> remote;
  auto decoded = Decode(xml::Serialize(doc), &remote);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(*decoded == set);
  ASSERT_EQ(remote.size(), 2u);
  EXPECT_EQ(remote[0].name, "xdb");
  EXPECT_EQ(remote[0].duration_micros(), 50);
  EXPECT_TRUE(remote[0].remote);
  EXPECT_EQ(remote[1].parent, 0);
  EXPECT_FALSE(remote[1].finished());
  ASSERT_EQ(remote[1].annotations.size(), 1u);
  EXPECT_EQ(remote[1].annotations[0].second, "miss");
}

TEST(ResultSetTest, MalformedSummaryAttributesAreParseErrors) {
  const char* cases[] = {
      "<results><result doc=\"a\" docid=\"x\"/></results>",
      "<results><result doc=\"a\"/></results>",
      "<results quarantined=\"-1\"/>",
      "<results quarantined=\"many\"/>",
      "<results complete=\"maybe\"/>",
      "<results complete=\"true\" quarantined=\"1\"/>",
      "<results complete=\"false\"/>",
      "<results count=\"2\"><result doc=\"a\" docid=\"1\"/></results>",
      "<results count=\"-1\"/>",
      "<results><sources><source name=\"s\" outcome=\"meh\" attempts=\"1\" "
      "latency_ms=\"0\" hits=\"0\"/></sources></results>",
      "<results><sources><source name=\"s\" outcome=\"ok\" attempts=\"1\" "
      "latency_ms=\"99999999999999999\" hits=\"0\"/></sources></results>",
      "<result doc=\"a\" docid=\"1\"/>",
      "<results><result doc=\"a\" docid=\"1\"/>",
  };
  for (const char* body : cases) {
    auto decoded = Decode(body);
    EXPECT_FALSE(decoded.ok()) << body;
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsParseError()) << body;
    }
  }
  // Missing summary attributes are derived, not required.
  auto bare = Decode("<results><result doc=\"a\" docid=\"1\"/></results>");
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_EQ(bare->hits.size(), 1u);
  EXPECT_TRUE(bare->complete());
}

// A sender chooses the nesting depth; a reply too deep for the recursive
// DOM walks is refused before any of them runs.
TEST(ResultSetTest, DeeplyNestedRepliesAreParseErrors) {
  auto nested = [](int depth, const std::string& open, const std::string& close) {
    std::string out;
    for (int i = 0; i < depth; ++i) out += open;
    out += "x";
    for (int i = 0; i < depth; ++i) out += close;
    return out;
  };
  const std::string content = "<results><result doc=\"a\" docid=\"1\"><content>";
  const std::string trace = "<results><trace>";
  auto deep_body = Decode(content + nested(200000, "<b>", "</b>") +
                          "</content></result></results>");
  ASSERT_FALSE(deep_body.ok());
  EXPECT_TRUE(deep_body.status().IsParseError());
  std::vector<observability::SpanData> spans;
  auto deep_trace = Decode(
      trace + nested(200000, "<span us=\"1\">", "</span>") + "</trace></results>", &spans);
  ASSERT_FALSE(deep_trace.ok());
  EXPECT_TRUE(deep_trace.status().IsParseError());

  auto shallow = Decode(content + nested(500, "<b>", "</b>") + "</content></result></results>");
  ASSERT_TRUE(shallow.ok()) << shallow.status().ToString();
  EXPECT_NE(xml::Serialize(Encode(*shallow)).find(nested(500, "<b>", "</b>")),
            std::string::npos);
}

// Every strict prefix, seeded single-bit flips and attribute garbage of a
// rich reply: each decodes to a value or a ParseError.
TEST(ResultSetTest, DamagedRepliesDecodeOrFailCleanly) {
  netmark::Rng rng(0xDA3A6E);
  ResultSet set;
  while (set.hits.size() < 3 || set.sources.empty()) set = RandomSet(rng);
  set.quarantined = 1;
  xml::Document doc = Encode(set);
  std::vector<observability::SpanData> spans(1);
  spans[0].id = 0;
  spans[0].name = "xdb";
  spans[0].start_micros = 1;
  spans[0].end_micros = 2;
  AppendTraceElement(doc, doc.DocumentElement(), spans);
  const std::string wire = xml::Serialize(doc);

  auto check = [](const std::string& body) {
    std::vector<observability::SpanData> remote;
    auto decoded = Decode(body, &remote);
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsParseError())
          << decoded.status().ToString() << "\n" << body;
    }
  };
  for (size_t len = 0; len < wire.size(); ++len) {
    auto decoded = Decode(wire.substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
    if (!decoded.ok()) {
      EXPECT_TRUE(decoded.status().IsParseError());
    }
  }
  for (int i = 0; i < 4000; ++i) {
    std::string flipped = wire;
    flipped[rng.Uniform(flipped.size())] ^= static_cast<char>(1u << rng.Uniform(8));
    check(flipped);
  }
  const std::pair<const char*, const char*> garbage[] = {
      {"docid=\"", "docid=\"x"},          {"quarantined=\"1", "quarantined=\"-1"},
      {"complete=\"false", "complete=\"maybe"}, {"count=\"", "count=\"9"},
      {"attempts=\"", "attempts=\"-"},    {"latency_ms=\"", "latency_ms=\"1e"},
      {"us=\"1\"", "us=\"9223372036854775807\""}, {"<results", "<result><results"},
  };
  for (const auto& [from, to] : garbage) {
    std::string body = wire;
    size_t at = body.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    body.replace(at, std::string_view(from).size(), to);
    check(body);
  }
}

}  // namespace
}  // namespace netmark::query
