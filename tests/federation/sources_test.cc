#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "federation/content_only_source.h"
#include "federation/local_source.h"
#include "federation/remote_source.h"
#include "xml/parser.h"

namespace netmark::federation {
namespace {

TEST(ContentOnlySourceTest, IgnoresContextAndMatchesKeywords) {
  ContentOnlySource source("lessons");
  auto doc = xml::ParseXml(
      "<document><context>Title</context><content>turbine wear</content>"
      "</document>");
  ASSERT_TRUE(doc.ok());
  source.AddDocument("l1.xml", *doc);
  EXPECT_EQ(source.document_count(), 1u);

  query::XdbQuery q;
  q.content = "turbine";
  q.context = "Completely Ignored";
  auto answer = source.Execute(q);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->hits.size(), 1u);
  EXPECT_EQ(answer->hits[0].file_name, "l1.xml");
  // The whole document is the body; the source names no section.
  ASSERT_TRUE(answer->hits[0].body);
  EXPECT_EQ(answer->hits[0].body->Markup(),
            "<document><context>Title</context><content>turbine wear</content>"
            "</document>");
  EXPECT_FALSE(answer->hits[0].heading);

  // No content key -> nothing (it cannot do context search at all).
  query::XdbQuery ctx_only;
  ctx_only.context = "Title";
  EXPECT_TRUE(source.Execute(ctx_only)->hits.empty());
}

TEST(ContentOnlySourceTest, PhraseDegradesToConjunction) {
  ContentOnlySource source("s");
  auto doc = xml::ParseXml(
      "<document><content>gap technology report</content></document>");
  ASSERT_TRUE(doc.ok());
  source.AddDocument("d.xml", *doc);
  query::XdbQuery q;
  q.content = "\"technology gap\"";  // words present but not adjacent
  auto answer = source.Execute(q);
  ASSERT_TRUE(answer.ok());
  // The limited source returns it anyway (false positive by design)...
  EXPECT_EQ(answer->hits.size(), 1u);
  // ...and its capabilities say so, which is what tells the router to
  // re-verify.
  EXPECT_FALSE(source.capabilities().phrase_search);
}

TEST(LocalSourceTest, FullCapabilityExecution) {
  auto dir = netmark::TempDir::Make("localsource");
  ASSERT_TRUE(dir.ok());
  auto store = xmlstore::XmlStore::Open(dir->str());
  ASSERT_TRUE(store.ok());
  auto doc = xml::ParseXml("<d><h1>Budget</h1><p>amount 100</p></d>");
  ASSERT_TRUE(doc.ok());
  xmlstore::DocumentInfo info;
  info.file_name = "d.xml";
  ASSERT_TRUE((*store)->InsertDocument(*doc, info).ok());

  LocalStoreSource source("local", store->get());
  EXPECT_TRUE(source.capabilities().context_search);
  query::XdbQuery q;
  q.context = "Budget";
  auto answer = source.Execute(q);
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->hits.size(), 1u);
  EXPECT_EQ(answer->hits[0].heading, "Budget");
  ASSERT_TRUE(answer->hits[0].body);
  EXPECT_EQ(answer->hits[0].body->Markup(), "<p>amount 100</p>");
  EXPECT_TRUE(answer->complete());
}

TEST(RemoteSourceTest, ParsesResultsDocuments) {
  const char* body =
      "<results query=\"context=Budget\" count=\"2\">"
      "<result doc=\"a.xml\" docid=\"1\"><context>Budget</context>"
      "<content><p>one <b>hundred</b></p></content></result>"
      "<result doc=\"b.xml\" docid=\"2\"/>"
      "</results>";
  auto set = query::Decode(body);
  ASSERT_TRUE(set.ok());
  ASSERT_EQ(set->hits.size(), 2u);
  const std::vector<query::ResultHit>& hits = set->hits;
  EXPECT_EQ(hits[0].file_name, "a.xml");
  EXPECT_EQ(hits[0].doc_id, 1);
  EXPECT_EQ(hits[0].heading, "Budget");
  ASSERT_TRUE(hits[0].body);
  EXPECT_EQ(hits[0].body->Markup(), "<p>one <b>hundred</b></p>");
  EXPECT_EQ(hits[1].file_name, "b.xml");
  EXPECT_FALSE(hits[1].heading);
  EXPECT_FALSE(hits[1].body);
}

TEST(RemoteSourceTest, RejectsNonResultsPayload) {
  EXPECT_FALSE(query::Decode("<error>boom</error>").ok());
  EXPECT_FALSE(query::Decode("not xml at all").ok());
}

class FakeTransport : public HttpTransport {
 public:
  explicit FakeTransport(std::string body) : body_(std::move(body)) {}
  using HttpTransport::Get;
  netmark::Result<std::string> Get(const std::string& path_and_query,
                                   const CallContext& ctx) override {
    (void)ctx;
    last_path = path_and_query;
    return body_;
  }
  std::string last_path;

 private:
  std::string body_;
};

TEST(RemoteSourceTest, BuildsXdbUrlsAndParses) {
  auto transport = std::make_unique<FakeTransport>(
      "<results><result doc=\"r.xml\" docid=\"3\"><context>C</context>"
      "<content>body</content></result></results>");
  FakeTransport* raw = transport.get();
  RemoteSource source("remote", std::move(transport));
  query::XdbQuery q;
  q.context = "Technology Gap";
  auto answer = source.Execute(q);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(raw->last_path, "/xdb?context=Technology+Gap");
  ASSERT_EQ(answer->hits.size(), 1u);
  EXPECT_EQ(answer->hits[0].doc_id, 3);
}

}  // namespace
}  // namespace netmark::federation
