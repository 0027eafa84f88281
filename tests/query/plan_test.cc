// Compiled query plans: strategy selection, the shape-keyed plan cache, and
// the specialized context+content loop agreeing with the generic path.

#include "query/plan.h"

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "query/executor.h"
#include "xml/parser.h"

namespace netmark::query {
namespace {

XdbQuery Parse(const std::string& qs) {
  auto q = ParseXdbQuery(qs);
  EXPECT_TRUE(q.ok()) << qs;
  return q.ok() ? *q : XdbQuery{};
}

TEST(QueryPlanTest, StrategySelection) {
  auto content = BuildQueryPlan(Parse("content=engine"));
  ASSERT_TRUE(content.ok());
  EXPECT_EQ((*content)->kind, QueryPlan::Kind::kContentOnly);

  auto context = BuildQueryPlan(Parse("context=Budget"));
  ASSERT_TRUE(context.ok());
  EXPECT_EQ((*context)->kind, QueryPlan::Kind::kSection);

  // The dominant production shape — context + plain term content — gets the
  // specialized postings-intersection loop.
  auto combined = BuildQueryPlan(Parse("context=Budget&content=engine+cost"));
  ASSERT_TRUE(combined.ok());
  EXPECT_EQ((*combined)->kind, QueryPlan::Kind::kSectionSpecialized);

  // Phrase/prefix content keys keep the generic verify path (the index
  // intersection alone does not prove word adjacency).
  auto phrase = BuildQueryPlan(Parse("context=Budget&content=%22engine+cost%22"));
  ASSERT_TRUE(phrase.ok());
  EXPECT_EQ((*phrase)->kind, QueryPlan::Kind::kSection);

  auto xpath = BuildQueryPlan(Parse("xpath=//h1"));
  ASSERT_TRUE(xpath.ok());
  EXPECT_EQ((*xpath)->kind, QueryPlan::Kind::kXPath);
  ASSERT_NE((*xpath)->xpath, nullptr);
}

TEST(QueryPlanTest, Errors) {
  EXPECT_TRUE(BuildQueryPlan(XdbQuery{}).status().IsInvalidArgument());
  EXPECT_TRUE(
      BuildQueryPlan(Parse("context=A&xpath=//h1")).status().IsInvalidArgument());
  EXPECT_FALSE(BuildQueryPlan(Parse("xpath=//h1[")).ok());
}

TEST(QueryPlanTest, ShapeKeyIgnoresRuntimeParameters) {
  // doc scope, limit, xslt and timeout do not change the compiled plan.
  EXPECT_EQ(QueryPlanShapeKey(Parse("context=A&content=b")),
            QueryPlanShapeKey(Parse("context=A&content=b&doc=7&limit=5&xslt=s")));
  EXPECT_NE(QueryPlanShapeKey(Parse("context=A")),
            QueryPlanShapeKey(Parse("content=A")));
  EXPECT_NE(QueryPlanShapeKey(Parse("context=A&content=b")),
            QueryPlanShapeKey(Parse("context=A&content=c")));
}

TEST(QueryPlanCacheTest, LookupInsertAndEviction) {
  QueryPlanCache::Options options;
  options.max_entries = 2;
  QueryPlanCache cache(options);
  auto plan = BuildQueryPlan(Parse("context=A"));
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(cache.Lookup("k1"), nullptr);
  cache.Insert("k1", *plan);
  cache.Insert("k2", *plan);
  EXPECT_NE(cache.Lookup("k1"), nullptr);  // k1 most recent
  cache.Insert("k3", *plan);               // evicts k2
  EXPECT_NE(cache.Lookup("k1"), nullptr);
  EXPECT_EQ(cache.Lookup("k2"), nullptr);
  QueryPlanCache::Snapshot snap = cache.snapshot();
  EXPECT_EQ(snap.entries, 2u);
  EXPECT_EQ(snap.evictions, 1u);
  EXPECT_GT(snap.hits, 0u);
}

TEST(QueryPlanCacheTest, DisabledCacheStoresNothing) {
  QueryPlanCache::Options options;
  options.enabled = false;
  QueryPlanCache cache(options);
  auto plan = BuildQueryPlan(Parse("context=A"));
  ASSERT_TRUE(plan.ok());
  cache.Insert("k", *plan);
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  EXPECT_EQ(cache.snapshot().entries, 0u);
}

// --- Specialized plan correctness against the generic path ---

class SpecializedPlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = netmark::TempDir::Make("plan_exec");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<netmark::TempDir>(std::move(*dir));
    auto store = xmlstore::XmlStore::Open(dir_->str());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    // Terms split across heading/body, repeated terms, nested sections, and
    // near-miss documents where terms land in different sections.
    Insert("paper.xml",
           "<doc>"
           "<h1>Engine Overview</h1><p>turbopump schematics and thrust data</p>"
           "<h1>Budget</h1><p>turbopump costs dominate</p>"
           "<h2>Forecast</h2><p>thrust margins shrink yearly</p>"
           "</doc>");
    Insert("report.xml",
           "<doc>"
           "<h1>Budget</h1><p>launch costs only</p>"
           "<h1>Engine</h1><p>turbopump thrust analysis</p>"
           "</doc>");
    Insert("memo.xml",
           "<doc><h1>Notes</h1><p>budget turbopump thrust in one line</p></doc>");
  }

  void Insert(const std::string& name, const char* markup) {
    auto doc = xml::ParseXml(markup);
    ASSERT_TRUE(doc.ok());
    xmlstore::DocumentInfo info;
    info.file_name = name;
    ASSERT_TRUE(store_->InsertDocument(*doc, info).ok());
  }

  std::vector<QueryHit> Run(const std::string& qs, bool specialized) {
    auto q = ParseXdbQuery(qs);
    EXPECT_TRUE(q.ok());
    ExecuteOptions options;
    options.use_specialized_section_plan = specialized;
    QueryExecutor executor(store_.get(), options);
    auto hits = executor.Execute(*q);
    EXPECT_TRUE(hits.ok()) << hits.status().ToString();
    return hits.ok() ? *hits : std::vector<QueryHit>{};
  }

  std::unique_ptr<netmark::TempDir> dir_;
  std::unique_ptr<xmlstore::XmlStore> store_;
};

TEST_F(SpecializedPlanTest, AgreesWithGenericPathOnEveryShape) {
  // Same query, same compiled plan, two strategies: the specialized
  // postings-intersection loop vs the generic seed + full-verify path (the
  // use_specialized_section_plan ablation knob).
  const char* queries[] = {
      "context=Budget&content=turbopump",
      "context=Budget&content=turbopump+costs",
      "context=Engine&content=thrust",
      "context=Forecast&content=thrust",
      "context=Budget&content=thrust",
      "context=Notes&content=budget+turbopump+thrust",
      "context=Budget&content=nonexistent",
      "context=Budget&content=turbopump&doc=2",
      "context=Overview&content=turbopump",
  };
  for (const char* qs : queries) {
    ASSERT_EQ((*BuildQueryPlan(Parse(qs)))->kind,
              QueryPlan::Kind::kSectionSpecialized)
        << qs;
    auto fast = Run(qs, /*specialized=*/true);
    auto generic = Run(qs, /*specialized=*/false);
    ASSERT_EQ(fast.size(), generic.size()) << qs;
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].doc_id, generic[i].doc_id) << qs;
      EXPECT_EQ(fast[i].context, generic[i].context) << qs;
      EXPECT_EQ(fast[i].heading, generic[i].heading) << qs;
      EXPECT_EQ(fast[i].body, generic[i].body) << qs;
    }
  }
}

TEST_F(SpecializedPlanTest, ContentTermInHeadingCountsForItsSection) {
  // "engine" appears only in headings; the section scope is heading + body
  // on both paths.
  auto fast = Run("context=Engine&content=engine", /*specialized=*/true);
  auto generic = Run("context=Engine&content=engine", /*specialized=*/false);
  ASSERT_EQ(fast.size(), generic.size());
  EXPECT_EQ(fast.size(), 2u);
}

TEST_F(SpecializedPlanTest, ExecutorSharesPlansThroughTheCache) {
  QueryPlanCache plans;
  QueryExecutor executor(store_.get());
  executor.set_plan_cache(&plans);
  auto q = ParseXdbQuery("context=Budget&content=turbopump");
  ASSERT_TRUE(q.ok());
  QueryExecutor::Stats first, second, third;
  ASSERT_TRUE(executor.Execute(*q, &first).ok());
  ASSERT_TRUE(executor.Execute(*q, &second).ok());
  EXPECT_EQ(first.plan_cache_hits, 0u);
  EXPECT_EQ(second.plan_cache_hits, 1u);
  // Different doc scope, same shape: still one compiled plan.
  auto scoped = ParseXdbQuery("context=Budget&content=turbopump&doc=2&limit=1");
  ASSERT_TRUE(scoped.ok());
  ASSERT_TRUE(executor.Execute(*scoped, &third).ok());
  EXPECT_EQ(third.plan_cache_hits, 1u);
  EXPECT_EQ(plans.snapshot().entries, 1u);
}

}  // namespace
}  // namespace netmark::query
