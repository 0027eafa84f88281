#include "query/executor.h"

#include <gtest/gtest.h>

#include <fstream>

#include "common/temp_dir.h"
#include "query/plan.h"
#include "query/result_cache.h"
#include "support/quarantined_store.h"
#include "xml/parser.h"

namespace netmark::query {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = netmark::TempDir::Make("executor");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<netmark::TempDir>(std::move(*dir));
    auto store = xmlstore::XmlStore::Open(dir_->str());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);

    Insert("paper.xml",
           "<doc>"
           "<h1>Introduction</h1><p>Integration middleware is heavy.</p>"
           "<h1>Technology Gap</h1><p>The technology gap is shrinking.</p>"
           "<h1>Conclusions</h1><p>Lean middleware wins.</p>"
           "</doc>");
    Insert("report.xml",
           "<doc>"
           "<h1>Budget</h1><p>The shuttle program budget is large.</p>"
           "<h1>Technology Gap</h1><p>Still widening in avionics.</p>"
           "</doc>");
    Insert("memo.xml", "<doc><h1>Notes</h1><p>shuttle avionics telemetry</p></doc>");
  }

  void Insert(const std::string& name, const char* markup) {
    auto doc = xml::ParseXml(markup);
    ASSERT_TRUE(doc.ok());
    xmlstore::DocumentInfo info;
    info.file_name = name;
    ASSERT_TRUE(store_->InsertDocument(*doc, info).ok());
  }

  std::vector<QueryHit> Run(const std::string& query_string,
                            ExecuteOptions options = {}) {
    auto q = ParseXdbQuery(query_string);
    EXPECT_TRUE(q.ok());
    QueryExecutor executor(store_.get(), options);
    auto hits = executor.Execute(*q);
    EXPECT_TRUE(hits.ok()) << hits.status().ToString();
    return hits.ok() ? *hits : std::vector<QueryHit>{};
  }

  std::unique_ptr<netmark::TempDir> dir_;
  std::unique_ptr<xmlstore::XmlStore> store_;
};

TEST_F(ExecutorTest, ContextSearchReturnsMatchingSectionsAcrossDocs) {
  auto hits = Run("context=Technology+Gap");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].file_name, "paper.xml");
  EXPECT_EQ(hits[0].heading, "Technology Gap");
  ASSERT_TRUE(hits[0].body && hits[1].body);
  EXPECT_NE(hits[0].body->Text().find("shrinking"), std::string::npos);
  EXPECT_EQ(hits[1].file_name, "report.xml");
  EXPECT_NE(hits[1].body->Text().find("widening"), std::string::npos);
}

TEST_F(ExecutorTest, ContextSearchDoesNotMatchBodyMentions) {
  // "technology" appears in paper.xml body text; only headings qualify.
  auto hits = Run("context=Introduction");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].heading, "Introduction");
}

TEST_F(ExecutorTest, ContentSearchReturnsWholeDocuments) {
  auto hits = Run("content=shuttle");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].file_name, "report.xml");
  EXPECT_EQ(hits[1].file_name, "memo.xml");
  EXPECT_FALSE(hits[0].context.valid());
}

TEST_F(ExecutorTest, ContentHitsCarrySnippets) {
  auto hits = Run("content=shuttle");
  ASSERT_EQ(hits.size(), 2u);
  // The report.xml match sits in its Budget section.
  EXPECT_EQ(hits[0].heading, "Budget");
  EXPECT_NE(hits[0].text.find("shuttle program"), std::string::npos);
  EXPECT_EQ(hits[1].heading, "Notes");
}

TEST_F(ExecutorTest, MultiTermContentIsDocumentConjunction) {
  // "shuttle" and "telemetry" co-occur only in memo.xml (different docs
  // otherwise).
  auto hits = Run("content=shuttle+telemetry");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file_name, "memo.xml");
}

TEST_F(ExecutorTest, CombinedQueryScopesContentToSection) {
  auto hits = Run("context=Technology+Gap&content=shrinking");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].file_name, "paper.xml");
  // "budget" is in report.xml's Budget section, not its Technology Gap one.
  EXPECT_TRUE(Run("context=Technology+Gap&content=budget").empty());
}

TEST_F(ExecutorTest, PhraseQueries) {
  auto hits = Run("context=%22Technology+Gap%22");
  EXPECT_EQ(hits.size(), 2u);
  EXPECT_TRUE(Run("context=%22Gap+Technology%22").empty());
}

TEST_F(ExecutorTest, DocScopeFilters) {
  auto hits = Run("context=Technology+Gap&doc=1");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].doc_id, 1);
}

TEST_F(ExecutorTest, LimitTruncates) {
  EXPECT_EQ(Run("context=Technology+Gap&limit=1").size(), 1u);
}

TEST_F(ExecutorTest, EmptyQueryIsInvalid) {
  QueryExecutor executor(store_.get());
  EXPECT_TRUE(executor.Execute(XdbQuery{}).status().IsInvalidArgument());
}

TEST_F(ExecutorTest, NoMatchesIsEmptyNotError) {
  EXPECT_TRUE(Run("context=Nonexistent").empty());
  EXPECT_TRUE(Run("content=zzzzzz").empty());
}

TEST_F(ExecutorTest, ScanFallbackAgreesWithIndex) {
  ExecuteOptions scan;
  scan.use_text_index = false;
  for (const char* qs :
       {"context=Technology+Gap", "content=shuttle",
        "context=Technology+Gap&content=shrinking", "content=shuttle+telemetry"}) {
    auto indexed = Run(qs);
    auto scanned = Run(qs, scan);
    ASSERT_EQ(indexed.size(), scanned.size()) << qs;
    for (size_t i = 0; i < indexed.size(); ++i) {
      EXPECT_EQ(indexed[i].doc_id, scanned[i].doc_id) << qs;
      EXPECT_EQ(indexed[i].heading, scanned[i].heading) << qs;
    }
  }
}

TEST_F(ExecutorTest, IndexJoinWalksAgreeWithRowidWalks) {
  ExecuteOptions joins;
  joins.use_index_joins_for_walks = true;
  for (const char* qs :
       {"context=Technology+Gap", "context=Budget&content=shuttle"}) {
    auto rowid_hits = Run(qs);
    auto join_hits = Run(qs, joins);
    ASSERT_EQ(rowid_hits.size(), join_hits.size()) << qs;
    for (size_t i = 0; i < rowid_hits.size(); ++i) {
      EXPECT_EQ(rowid_hits[i].context, join_hits[i].context) << qs;
    }
  }
}

TEST_F(ExecutorTest, IntenseMarkupBoostsContentRanking) {
  // Same term frequency, but one document emphasizes the term.
  Insert("plain.xml", "<doc><h1>A</h1><p>turbopump mentioned casually</p></doc>");
  Insert("intense.xml", "<doc><h1>A</h1><p><b>turbopump</b> is critical</p></doc>");
  auto hits = Run("content=turbopump");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].file_name, "intense.xml");  // emphasized match ranks first
  EXPECT_GT(hits[0].score, hits[1].score);
  EXPECT_EQ(hits[1].file_name, "plain.xml");
}

TEST_F(ExecutorTest, HigherTermFrequencyRanksFirst) {
  Insert("once.xml", "<doc><p>gyroscope</p></doc>");
  Insert("thrice.xml",
         "<doc><p>gyroscope</p><p>gyroscope</p><p>gyroscope</p></doc>");
  auto hits = Run("content=gyroscope");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].file_name, "thrice.xml");
  EXPECT_EQ(hits[0].score, 3.0);
  EXPECT_EQ(hits[1].score, 1.0);
}

TEST_F(ExecutorTest, StatsAreReturnedPerCall) {
  QueryExecutor executor(store_.get());
  auto q = ParseXdbQuery("context=Technology+Gap");
  ASSERT_TRUE(q.ok());
  QueryExecutor::Stats stats;
  ASSERT_TRUE(executor.Execute(*q, &stats).ok());
  EXPECT_GT(stats.index_probes, 0u);
  EXPECT_GT(stats.nodes_walked, 0u);
  EXPECT_EQ(stats.sections_built, 2u);
  // No caches attached: both cache counters stay zero.
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.plan_cache_hits, 0u);
}

TEST_F(ExecutorTest, StatsReportCacheAndPlanCacheHits) {
  QueryResultCache cache;
  QueryPlanCache plans;
  QueryExecutor executor(store_.get());
  executor.set_result_cache(&cache);
  executor.set_plan_cache(&plans);
  auto q = ParseXdbQuery("context=Technology+Gap");
  ASSERT_TRUE(q.ok());

  QueryExecutor::Stats cold;
  ASSERT_TRUE(executor.Execute(*q, &cold).ok());
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.plan_cache_hits, 0u);
  EXPECT_GT(cold.sections_built, 0u);

  QueryExecutor::Stats warm;
  ASSERT_TRUE(executor.Execute(*q, &warm).ok());
  EXPECT_EQ(warm.cache_hits, 1u);
  // A result-cache hit short-circuits execution entirely.
  EXPECT_EQ(warm.index_probes, 0u);
  EXPECT_EQ(warm.sections_built, 0u);

  // Same shape, different limit: result cache misses, plan cache hits.
  auto limited = ParseXdbQuery("context=Technology+Gap&limit=1");
  ASSERT_TRUE(limited.ok());
  QueryExecutor::Stats replanned;
  ASSERT_TRUE(executor.Execute(*limited, &replanned).ok());
  EXPECT_EQ(replanned.cache_hits, 0u);
  EXPECT_EQ(replanned.plan_cache_hits, 1u);
}

TEST_F(ExecutorTest, ExecuteAcceptsCallerSnapshot) {
  QueryExecutor executor(store_.get());
  auto q = ParseXdbQuery("context=Technology+Gap");
  ASSERT_TRUE(q.ok());
  xmlstore::XmlStore::ReadSnapshot snapshot = store_->BeginRead();
  auto hits = executor.Execute(*q, snapshot);
  ASSERT_TRUE(hits.ok());
  EXPECT_FALSE(hits->empty());
  EXPECT_TRUE(snapshot.valid());
}

// A heading is matched before its body is read, so a quarantined page
// holding only the body of a rejected candidate does not make the answer
// partial, while the same page under a matching heading still does.
class ExecutorQuarantineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = netmark::TempDir::Make("executor_quarantine");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<netmark::TempDir>(std::move(*dir));
    ASSERT_NO_FATAL_FAILURE(testing_support::BuildQuarantinedStore(dir_->path()));
    auto reopened = xmlstore::XmlStore::Open(dir_->str());
    ASSERT_TRUE(reopened.ok());
    store_ = std::move(*reopened);
  }

  std::vector<QueryHit> Run(const std::string& query_string,
                            QueryExecutor::Stats* stats) {
    auto q = ParseXdbQuery(query_string);
    EXPECT_TRUE(q.ok());
    QueryExecutor executor(store_.get());
    auto hits = executor.Execute(*q, stats);
    EXPECT_TRUE(hits.ok()) << hits.status().ToString();
    return hits.ok() ? *hits : std::vector<QueryHit>{};
  }

  std::unique_ptr<netmark::TempDir> dir_;
  std::unique_ptr<xmlstore::XmlStore> store_;
};

TEST_F(ExecutorQuarantineTest, QuarantinedBodyUnderRejectedHeadingLeavesAnswerComplete) {
  // "Alpha" is also mentioned in Beta's body, so Beta's heading is a
  // candidate; it is rejected before its content run reaches the bad page.
  QueryExecutor::Stats stats;
  auto hits = Run("context=Alpha", &stats);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].heading, "Alpha");
  EXPECT_EQ(stats.quarantined_skips, 0u);
}

TEST_F(ExecutorQuarantineTest, QuarantinedBodyUnderMatchingHeadingMarksAnswerPartial) {
  QueryExecutor::Stats stats;
  auto hits = Run("context=Beta", &stats);
  EXPECT_TRUE(hits.empty());
  EXPECT_GT(stats.quarantined_skips, 0u);
}

}  // namespace
}  // namespace netmark::query
