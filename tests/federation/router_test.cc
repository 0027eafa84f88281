#include "federation/router.h"

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "federation/content_only_source.h"
#include "federation/local_source.h"
#include "query/xdb_query.h"
#include "xml/parser.h"

namespace netmark::federation {
namespace {

class RouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = netmark::TempDir::Make("router");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<netmark::TempDir>(std::move(*dir));

    auto store_a = xmlstore::XmlStore::Open(dir_->Sub("a").string());
    auto store_b = xmlstore::XmlStore::Open(dir_->Sub("b").string());
    ASSERT_TRUE(store_a.ok() && store_b.ok());
    store_a_ = std::move(*store_a);
    store_b_ = std::move(*store_b);

    InsertInto(store_a_.get(), "a1.xml",
               "<doc><h1>Budget</h1><p>alpha store budget text engine</p>"
               "<h1>Schedule</h1><p>alpha schedule</p></doc>");
    InsertInto(store_b_.get(), "b1.xml",
               "<doc><h1>Budget</h1><p>beta store cost table</p></doc>");

    // Content-only source with upmarked documents (Lessons Learned style).
    auto lessons = std::make_shared<ContentOnlySource>("lessons");
    auto lesson_doc = xml::ParseXml(
        "<document><context>Title</context>"
        "<content>Engine turbine lesson</content>"
        "<context>Lesson</context>"
        "<content>Inspect the engine nozzle before flight.</content>"
        "</document>");
    ASSERT_TRUE(lesson_doc.ok());
    lessons->AddDocument("lesson1.xml", *lesson_doc);
    auto other_doc = xml::ParseXml(
        "<document><context>Title</context>"
        "<content>Software verification lesson</content>"
        "<context>Lesson</context>"
        "<content>Review the software budget early.</content></document>");
    ASSERT_TRUE(other_doc.ok());
    lessons->AddDocument("lesson2.xml", *other_doc);

    ASSERT_TRUE(router_.RegisterSource(
        std::make_shared<LocalStoreSource>("store-a", store_a_.get())).ok());
    ASSERT_TRUE(router_.RegisterSource(
        std::make_shared<LocalStoreSource>("store-b", store_b_.get())).ok());
    ASSERT_TRUE(router_.RegisterSource(lessons).ok());
    ASSERT_TRUE(router_.DefineDatabank("all", {"store-a", "store-b", "lessons"}).ok());
    ASSERT_TRUE(router_.DefineDatabank("stores", {"store-a", "store-b"}).ok());
  }

  void InsertInto(xmlstore::XmlStore* store, const std::string& name,
                  const char* markup) {
    auto doc = xml::ParseXml(markup);
    ASSERT_TRUE(doc.ok());
    xmlstore::DocumentInfo info;
    info.file_name = name;
    ASSERT_TRUE(store->InsertDocument(*doc, info).ok());
  }

  std::vector<query::ResultHit> Query(const std::string& bank,
                                      const std::string& qs) {
    auto q = query::ParseXdbQuery(qs);
    EXPECT_TRUE(q.ok());
    auto result = router_.QueryFederated(bank, *q);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result->hits : std::vector<query::ResultHit>{};
  }

  std::unique_ptr<netmark::TempDir> dir_;
  std::unique_ptr<xmlstore::XmlStore> store_a_;
  std::unique_ptr<xmlstore::XmlStore> store_b_;
  Router router_;
};

TEST_F(RouterTest, DeclarativeSetupValidation) {
  Router r;
  EXPECT_TRUE(r.DefineDatabank("empty", {}).IsInvalidArgument());
  EXPECT_TRUE(r.DefineDatabank("bad", {"ghost"}).IsNotFound());
  auto src = std::make_shared<ContentOnlySource>("s");
  ASSERT_TRUE(r.RegisterSource(src).ok());
  EXPECT_TRUE(r.RegisterSource(src).IsAlreadyExists());
  ASSERT_TRUE(r.DefineDatabank("ok", {"s"}).ok());
  EXPECT_TRUE(r.DefineDatabank("ok", {"s"}).IsAlreadyExists());
  EXPECT_TRUE(r.HasDatabank("ok"));
  EXPECT_EQ(r.SourceNames().size(), 1u);
}

TEST_F(RouterTest, FanOutMergesAcrossStores) {
  auto hits = Query("stores", "context=Budget");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].source, "store-a");
  EXPECT_EQ(hits[1].source, "store-b");
  EXPECT_EQ(router_.stats().sources_queried, 2u);
  EXPECT_EQ(router_.stats().pushed_down_full, 2u);
  EXPECT_EQ(router_.stats().augmented, 0u);
}

TEST_F(RouterTest, ContentOnlySourceGetsAugmentedForContextQueries) {
  // The paper's Context=Title&Content=Engine walkthrough: the lessons source
  // can only run the content part; the router extracts Title sections.
  auto hits = Query("all", "context=Title&content=engine");
  // store-a has no section titled Title; lesson1 matches.
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].source, "lessons");
  EXPECT_EQ(hits[0].heading, "Title");
  ASSERT_TRUE(hits[0].body);
  EXPECT_NE(hits[0].body->Text().find("Engine turbine"), std::string::npos);
  EXPECT_EQ(router_.stats().augmented, 1u);
}

TEST_F(RouterTest, AugmentationFiltersHeadingsLocally) {
  // "budget" appears in lesson2's Lesson section; context=Lesson must match
  // only that section, not the Title one.
  auto hits = Query("all", "context=Lesson&content=budget");
  std::vector<query::ResultHit> lesson_hits;
  for (auto& h : hits) {
    if (h.source == "lessons") lesson_hits.push_back(h);
  }
  ASSERT_EQ(lesson_hits.size(), 1u);
  EXPECT_EQ(lesson_hits[0].file_name, "lesson2.xml");
  ASSERT_TRUE(lesson_hits[0].body);
  EXPECT_NE(lesson_hits[0].body->Text().find("software budget"), std::string::npos);
}

TEST_F(RouterTest, ContentOnlyQueriesPushDownToAllSources) {
  auto hits = Query("all", "content=engine");
  // store-a doc mentions engine; lesson1 mentions engine.
  ASSERT_EQ(hits.size(), 2u);
  // A content-only query is within every source's capabilities, so all three
  // sources take the full push-down path — no augmentation needed.
  EXPECT_EQ(router_.stats().pushed_down_full, 3u);
  EXPECT_EQ(router_.stats().augmented, 0u);
}

TEST_F(RouterTest, UnknownDatabankFails) {
  query::XdbQuery q;
  q.content = "x";
  EXPECT_TRUE(router_.QueryFederated("nope", q).status().IsNotFound());
}

TEST_F(RouterTest, LimitAppliesAcrossMergedResults) {
  auto hits = Query("stores", "context=Budget&limit=1");
  EXPECT_EQ(hits.size(), 1u);
}

TEST_F(RouterTest, ArbitrarySourceCountsCompose) {
  // "we can take arbitrary numbers of sources and compose applications"
  Router r;
  for (int i = 0; i < 16; ++i) {
    auto src = std::make_shared<ContentOnlySource>("s" + std::to_string(i));
    auto doc = xml::ParseXml("<document><context>Sec</context><content>word" +
                             std::to_string(i) + " shared</content></document>");
    ASSERT_TRUE(doc.ok());
    src->AddDocument("d" + std::to_string(i) + ".xml", *doc);
    ASSERT_TRUE(r.RegisterSource(src).ok());
  }
  std::vector<std::string> names;
  for (int i = 0; i < 16; ++i) names.push_back("s" + std::to_string(i));
  ASSERT_TRUE(r.DefineDatabank("wide", names).ok());
  query::XdbQuery q;
  q.content = "shared";
  auto result = r.QueryFederated("wide", q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->hits.size(), 16u);
  EXPECT_EQ(r.stats().sources_queried, 16u);
}

}  // namespace
}  // namespace netmark::federation
