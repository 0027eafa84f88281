// Federation over live HTTP: two NETMARK servers + a content-only source
// behind one databank router (the Anomaly Tracking topology, Fig 8).

#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/temp_dir.h"
#include "core/netmark.h"
#include "federation/content_only_source.h"
#include "federation/remote_source.h"
#include "server/http_client.h"
#include "workload/corpus.h"
#include "xml/parser.h"

namespace netmark {
namespace {

// Renders a databank answer as its completeness flag, one <source> per
// source outcome, and one <h> per result heading.
constexpr const char* kSummarySheet =
    "<xsl:stylesheet><xsl:template match=\"/\"><report>"
    "<complete><xsl:value-of select=\"results/@complete\"/></complete>"
    "<xsl:for-each select=\"results/sources/source\">"
    "<source><xsl:value-of select=\"@outcome\"/></source></xsl:for-each>"
    "<xsl:for-each select=\"results/result\">"
    "<h><xsl:value-of select=\"context\"/></h></xsl:for-each>"
    "</report></xsl:template></xsl:stylesheet>";

class FederationHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("fedhttp");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));

    // Two remote NETMARK instances, each holding anomaly reports.
    workload::CorpusGenerator gen(555);
    for (int s = 0; s < 2; ++s) {
      NetmarkOptions options;
      options.data_dir = dir_->Sub("remote" + std::to_string(s)).string();
      auto nm = Netmark::Open(options);
      ASSERT_TRUE(nm.ok());
      for (int i = 0; i < 4; ++i) {
        auto doc = gen.AnomalyReport(s * 100 + i);
        ASSERT_TRUE((*nm)->IngestContent(doc.file_name, doc.content).ok());
      }
      ASSERT_TRUE((*nm)->RegisterStylesheet("summary", kSummarySheet).ok());
      ASSERT_TRUE((*nm)->StartServer().ok());
      remotes_.push_back(std::move(*nm));
    }

    // The local coordinator.
    NetmarkOptions options;
    options.data_dir = dir_->Sub("local").string();
    auto nm = Netmark::Open(options);
    ASSERT_TRUE(nm.ok());
    local_ = std::move(*nm);
    ASSERT_TRUE(local_->RegisterStylesheet("summary", kSummarySheet).ok());

    for (size_t s = 0; s < remotes_.size(); ++s) {
      ASSERT_TRUE(local_
                      ->RegisterSource(std::make_shared<federation::RemoteSource>(
                          "anomaly-db-" + std::to_string(s),
                          std::make_unique<server::SocketTransport>(
                              "127.0.0.1", remotes_[s]->server_port())))
                      .ok());
    }
    ASSERT_TRUE(local_->DefineDatabank("anomalies",
                                       {"anomaly-db-0", "anomaly-db-1"})
                    .ok());
  }

  void TearDown() override {
    for (auto& nm : remotes_) nm->StopServer();
  }

  std::unique_ptr<TempDir> dir_;
  std::vector<std::unique_ptr<Netmark>> remotes_;
  std::unique_ptr<Netmark> local_;
};

TEST_F(FederationHttpTest, SimultaneousQueryAcrossLiveServers) {
  // Every anomaly report has an "Anomaly Description" section.
  auto result =
      local_->QueryDatabankFederated("anomalies", "context=Anomaly+Description");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->hits.size(), 8u);
  size_t from_0 = 0, from_1 = 0;
  for (const auto& hit : result->hits) {
    if (hit.source == "anomaly-db-0") ++from_0;
    if (hit.source == "anomaly-db-1") ++from_1;
    EXPECT_EQ(hit.heading, "Anomaly Description");
    ASSERT_TRUE(hit.body);
    EXPECT_FALSE(hit.body->Text().empty());
  }
  EXPECT_EQ(from_0, 4u);
  EXPECT_EQ(from_1, 4u);
}

TEST_F(FederationHttpTest, CombinedQueryOverHttp) {
  auto critical = local_->QueryDatabankFederated(
      "anomalies", "context=Disposition&content=critical");
  ASSERT_TRUE(critical.ok());
  for (const auto& hit : critical->hits) {
    EXPECT_EQ(hit.heading, "Disposition");
    ASSERT_TRUE(hit.body);
    EXPECT_NE(hit.body->Text().find("critical"), std::string::npos);
  }
  // Sanity: the complementary severity exists too and sets differ.
  auto minor = local_->QueryDatabankFederated("anomalies",
                                              "context=Disposition&content=minor");
  ASSERT_TRUE(minor.ok());
  EXPECT_EQ(critical->hits.size() + minor->hits.size(), 8u);
}

TEST_F(FederationHttpTest, DeadSourceDoesNotBreakTheDatabank) {
  // Register a source pointing at a dead port; the databank keeps serving.
  ASSERT_TRUE(local_
                  ->RegisterSource(std::make_shared<federation::RemoteSource>(
                      "dead",
                      std::make_unique<server::SocketTransport>("127.0.0.1", 1)))
                  .ok());
  ASSERT_TRUE(local_->DefineDatabank(
                      "with-dead", {"anomaly-db-0", "dead", "anomaly-db-1"})
                  .ok());
  auto result =
      local_->QueryDatabankFederated("with-dead", "context=Anomaly+Description");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->hits.size(), 8u);
  EXPECT_EQ(local_->router()->stats().sources_queried, 3u);
}

TEST_F(FederationHttpTest, DatabankExposedThroughLocalHttpEndpoint) {
  ASSERT_TRUE(local_->StartServer().ok());
  server::HttpClient client("127.0.0.1", local_->server_port());
  auto resp =
      client.Get("/xdb?context=Corrective+Action&databank=anomalies");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, 200);
  auto doc = xml::ParseXml(resp->body);
  ASSERT_TRUE(doc.ok());
  xml::NodeId results = doc->DocumentElement();
  EXPECT_EQ(doc->name(results), "results");
  // 8 <result> elements plus the <sources> outcome annotation.
  size_t result_count = 0;
  for (xml::NodeId child : doc->ChildElements(results)) {
    if (doc->name(child) == "result") ++result_count;
  }
  EXPECT_EQ(result_count, 8u);
  xml::NodeId sources = doc->FirstChildElement(results, "sources");
  ASSERT_NE(sources, xml::kInvalidNode);
  EXPECT_EQ(doc->ChildElements(sources).size(), 2u);
  for (xml::NodeId src : doc->ChildElements(sources)) {
    EXPECT_EQ(doc->GetAttribute(src, "outcome"), "ok");
  }
  local_->StopServer();
}

TEST_F(FederationHttpTest, XsltAppliesOnceAtTheMediator) {
  // A remote source is sent only what it can answer: the stylesheet is the
  // mediator's to apply, so the remotes must get the query without xslt=
  // (they would answer with a <report> the router cannot parse, and enough
  // such failures would open their breakers).
  ASSERT_TRUE(local_->StartServer().ok());
  server::HttpClient client("127.0.0.1", local_->server_port());
  std::string expected = "<report><complete>true</complete>";
  expected += "<source>ok</source><source>ok</source>";
  for (int i = 0; i < 8; ++i) expected += "<h>Corrective Action</h>";
  expected += "</report>";
  const int queries = federation::CircuitBreakerConfig{}.failure_threshold + 1;
  for (int i = 0; i < queries; ++i) {
    auto resp = client.Get(
        "/xdb?context=Corrective+Action&databank=anomalies&xslt=summary");
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status, 200);
    EXPECT_EQ(resp->body, expected) << "query " << i;
  }
  for (const char* name : {"anomaly-db-0", "anomaly-db-1"}) {
    federation::CircuitBreaker* breaker = local_->router()->GetBreaker(name);
    ASSERT_NE(breaker, nullptr);
    EXPECT_EQ(breaker->state(MonotonicMicros()),
              federation::CircuitBreaker::State::kClosed)
        << name;
    EXPECT_EQ(breaker->consecutive_failures(), 0) << name;
  }
  local_->StopServer();
}

}  // namespace
}  // namespace netmark
