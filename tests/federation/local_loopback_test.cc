// Local and loopback-federated answers agree: a databank holding a
// LocalStoreSource and a RemoteSource that reaches the same store's XDB
// endpoint must answer every query shape — section, content-only, XPath, and
// a section lost to a quarantined page — exactly as plain /xdb does, apart
// from the `source` attribute. An augmented content-only source holding the
// same document returns the same section too, as does a loopback
// RemoteSource declared content-only.

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "federation/content_only_source.h"
#include "federation/local_source.h"
#include "federation/remote_source.h"
#include "federation/router.h"
#include "server/netmark_service.h"
#include "support/quarantined_store.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace netmark::federation {
namespace {

server::HttpRequest XdbGet(const std::string& query) {
  server::HttpRequest req;
  req.method = "GET";
  req.target = "/xdb?" + query;
  req.path = "/xdb";
  req.query = query;
  return req;
}

// Answers "/xdb?..." through a service's Handle, without a socket.
class InProcessTransport : public HttpTransport {
 public:
  explicit InProcessTransport(server::NetmarkService* service)
      : service_(service) {}

  using HttpTransport::Get;
  netmark::Result<std::string> Get(const std::string& path_and_query,
                                   const CallContext&) override {
    size_t mark = path_and_query.find('?');
    if (mark == std::string::npos) {
      return netmark::Status::InvalidArgument("no query in " + path_and_query);
    }
    server::HttpResponse resp =
        service_->Handle(XdbGet(path_and_query.substr(mark + 1)));
    if (resp.status != 200) return netmark::Status::IOError(resp.body);
    return resp.body;
  }

 private:
  server::NetmarkService* service_;
};

// The serialized <content> of every <result>, in document order.
std::vector<std::string> ResultContents(const std::string& body) {
  std::vector<std::string> out;
  auto doc = xml::ParseXml(body);
  EXPECT_TRUE(doc.ok()) << body;
  if (!doc.ok()) return out;
  xml::NodeId results = doc->DocumentElement();
  for (xml::NodeId r = doc->first_child(results); r != xml::kInvalidNode;
       r = doc->next_sibling(r)) {
    if (doc->kind(r) != xml::NodeKind::kElement || doc->name(r) != "result") {
      continue;
    }
    xml::NodeId content = doc->FirstChildElement(r, "content");
    out.push_back(content == xml::kInvalidNode ? ""
                                               : xml::Serialize(*doc, content));
  }
  return out;
}

// One store behind /xdb, a LocalStoreSource and a loopback RemoteSource in
// databank "both"; "all" adds a content-only source holding the same
// document.
class LocalLoopbackAgreementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = netmark::TempDir::Make("agreement");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<netmark::TempDir>(std::move(*dir));
  }

  // The store holds one document, "d.xml".
  void Open(const std::string& markup) {
    ASSERT_NO_FATAL_FAILURE(OpenStore());
    testing_support::InsertMarkup(*store_, "d.xml", markup);
    auto lessons = std::make_shared<ContentOnlySource>("lessons");
    auto doc = xml::ParseXml(markup);
    ASSERT_TRUE(doc.ok());
    lessons->AddDocument("d.xml", std::move(*doc));
    ASSERT_TRUE(router_.RegisterSource(lessons).ok());
    ASSERT_TRUE(router_.DefineDatabank("all", {"local", "loopback", "lessons"}).ok());
  }

  // The store of testing_support::BuildQuarantinedStore.
  void OpenQuarantined() {
    ASSERT_NO_FATAL_FAILURE(testing_support::BuildQuarantinedStore(dir_->path()));
    ASSERT_NO_FATAL_FAILURE(OpenStore());
  }

  void OpenStore() {
    auto store = xmlstore::XmlStore::Open(dir_->str());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    service_ = std::make_unique<server::NetmarkService>(store_.get());
    ASSERT_TRUE(router_
                    .RegisterSource(std::make_shared<LocalStoreSource>(
                        "local", store_.get()))
                    .ok());
    ASSERT_TRUE(router_
                    .RegisterSource(std::make_shared<RemoteSource>(
                        "loopback",
                        std::make_unique<InProcessTransport>(service_.get())))
                    .ok());
    ASSERT_TRUE(router_.DefineDatabank("both", {"local", "loopback"}).ok());
    service_->set_router(&router_);
  }

  query::ResultSet Answer(const std::string& query) {
    server::HttpResponse resp = service_->Handle(XdbGet(query));
    EXPECT_EQ(resp.status, 200) << resp.body;
    auto set = query::Decode(resp.body);
    EXPECT_TRUE(set.ok()) << set.status().ToString() << "\n" << resp.body;
    last_body_ = resp.body;
    return set.ok() ? std::move(*set) : query::ResultSet{};
  }

  // The hits `source` contributed, with the source attribute cleared.
  static std::vector<query::ResultHit> From(const query::ResultSet& set,
                                            const std::string& source) {
    std::vector<query::ResultHit> out;
    for (const query::ResultHit& hit : set.hits) {
      if (hit.source != source) continue;
      out.push_back(hit);
      out.back().source.clear();
    }
    return out;
  }

  // Plain /xdb, then databank=both: local == loopback == plain.
  query::ResultSet ExpectAgreement(const std::string& query) {
    query::ResultSet plain = Answer(query);
    query::ResultSet federated = Answer("databank=both&" + query);
    EXPECT_TRUE(From(federated, "local") == plain.hits) << last_body_;
    EXPECT_TRUE(From(federated, "loopback") == plain.hits) << last_body_;
    return federated;
  }

  std::unique_ptr<netmark::TempDir> dir_;
  std::unique_ptr<xmlstore::XmlStore> store_;
  Router router_;
  std::unique_ptr<server::NetmarkService> service_;
  std::string last_body_;
};

TEST_F(LocalLoopbackAgreementTest, LocalAndRemoteSourcesComposeTheSameSection) {
  ASSERT_NO_FATAL_FAILURE(
      Open("<d><h1>Budget</h1><p>amount 100</p><p>second para</p></d>"));
  server::HttpResponse plain = service_->Handle(XdbGet("context=Budget"));
  ASSERT_EQ(plain.status, 200) << plain.body;
  std::vector<std::string> plain_contents = ResultContents(plain.body);
  ASSERT_EQ(plain_contents.size(), 1u) << plain.body;
  EXPECT_EQ(plain_contents[0],
            "<content><p>amount 100</p><p>second para</p></content>");

  server::HttpResponse federated =
      service_->Handle(XdbGet("databank=both&context=Budget"));
  ASSERT_EQ(federated.status, 200) << federated.body;
  std::vector<std::string> contents = ResultContents(federated.body);
  ASSERT_EQ(contents.size(), 2u) << federated.body;  // one per source
  EXPECT_EQ(contents[0], plain_contents[0]) << federated.body;
  EXPECT_EQ(contents[1], plain_contents[0]) << federated.body;
}

constexpr const char* kBudgetDoc =
    "<d><h1>Budget</h1><p>amount<b>100</b> units</p></d>";

TEST_F(LocalLoopbackAgreementTest, ContentOnlyQueryAnswersWithTheSameSnippet) {
  ASSERT_NO_FATAL_FAILURE(Open(kBudgetDoc));
  query::ResultSet plain = Answer("content=amount");
  ASSERT_EQ(plain.hits.size(), 1u) << last_body_;
  ASSERT_TRUE(plain.hits[0].snippet);
  EXPECT_EQ(plain.hits[0].snippet->section, "Budget");
  EXPECT_FALSE(plain.hits[0].body);
  query::ResultSet federated = ExpectAgreement("content=amount");
  EXPECT_EQ(federated.hits.size(), 2u) << last_body_;
  EXPECT_TRUE(federated.complete());
}

TEST_F(LocalLoopbackAgreementTest, XPathQueryAnswersWithTheSameNodeAndSnippet) {
  ASSERT_NO_FATAL_FAILURE(Open(kBudgetDoc));
  query::ResultSet plain = Answer("xpath=//p");
  ASSERT_EQ(plain.hits.size(), 1u) << last_body_;
  ASSERT_TRUE(plain.hits[0].body && plain.hits[0].snippet);
  EXPECT_EQ(plain.hits[0].snippet->text, "amount 100  units");
  query::ResultSet federated = ExpectAgreement("xpath=//p");
  EXPECT_EQ(federated.hits.size(), 2u) << last_body_;
  EXPECT_NE(last_body_.find("<content><p>amount<b>100</b> units</p></content>"),
            std::string::npos)
      << last_body_;
}

TEST_F(LocalLoopbackAgreementTest, QuarantinedSectionMakesBothSourcesPartial) {
  ASSERT_NO_FATAL_FAILURE(OpenQuarantined());
  query::ResultSet plain = Answer("context=Beta");
  EXPECT_FALSE(plain.complete()) << last_body_;
  EXPECT_GE(plain.quarantined, 1u);
  query::ResultSet federated = ExpectAgreement("context=Beta");
  EXPECT_NE(last_body_.find("complete=\"false\""), std::string::npos) << last_body_;
  ASSERT_EQ(federated.sources.size(), 2u);
  for (const query::SourceOutcome& outcome : federated.sources) {
    EXPECT_EQ(outcome.state, SourceState::kPartial) << outcome.source;
  }
  EXPECT_GE(federated.quarantined, 2u);
}

TEST_F(LocalLoopbackAgreementTest, AugmentedContentOnlySourceReturnsTheSameSection) {
  // The content key matches only with text nodes joined by spaces
  // ("amount 100 units"), as the store joins them.
  ASSERT_NO_FATAL_FAILURE(Open(kBudgetDoc));
  query::ResultSet federated = Answer("databank=all&context=Budget&content=100");
  std::vector<query::ResultHit> local = From(federated, "local");
  ASSERT_EQ(local.size(), 1u) << last_body_;
  EXPECT_EQ(local[0].heading, "Budget");
  EXPECT_TRUE(From(federated, "loopback") == local) << last_body_;
  EXPECT_TRUE(From(federated, "lessons") == local) << last_body_;
}

TEST_F(LocalLoopbackAgreementTest, ContentOnlyRemoteSourceReturnsTheSameSection) {
  // A remote NETMARK declared content-only (a databank INI's
  // `capabilities = content`) answers with whole documents, and the router
  // extracts the same section from them.
  ASSERT_NO_FATAL_FAILURE(Open(kBudgetDoc));
  ASSERT_TRUE(router_
                  .RegisterSource(std::make_shared<RemoteSource>(
                      "remote-lessons",
                      std::make_unique<InProcessTransport>(service_.get()),
                      Capabilities::ContentOnly()))
                  .ok());
  ASSERT_TRUE(router_.DefineDatabank("content", {"local", "remote-lessons"}).ok());
  query::ResultSet federated = Answer("databank=content&context=Budget&content=100");
  std::vector<query::ResultHit> local = From(federated, "local");
  ASSERT_EQ(local.size(), 1u) << last_body_;
  EXPECT_TRUE(From(federated, "remote-lessons") == local) << last_body_;
  EXPECT_TRUE(federated.complete()) << last_body_;
}

}  // namespace
}  // namespace netmark::federation
