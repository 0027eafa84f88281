// The cached read path under concurrency (the TSan matrix runs this suite):
// one shared executor + result/plan caches, reader threads hammering a
// repetitive query mix while a writer commits new documents — every commit
// must be visible to the very next query (epoch keying means no stale hits),
// and the cache counters must stay coherent.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "query/compose.h"
#include "query/executor.h"
#include "query/plan.h"
#include "query/result_cache.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace netmark::query {
namespace {

class QueryCacheConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = netmark::TempDir::Make("query_cache_conc");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<netmark::TempDir>(std::move(*dir));
    auto store = xmlstore::XmlStore::Open(dir_->str());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    executor_ = std::make_unique<QueryExecutor>(store_.get());
    executor_->set_result_cache(&cache_);
    executor_->set_plan_cache(&plans_);
    Insert("seed.xml",
           "<doc><h1>Budget</h1><p>baseline engine costs</p>"
           "<h1>Overview</h1><p>steady state corpus</p></doc>");
  }

  void Insert(const std::string& name, const std::string& markup) {
    auto doc = xml::ParseXml(markup);
    ASSERT_TRUE(doc.ok());
    xmlstore::DocumentInfo info;
    info.file_name = name;
    ASSERT_TRUE(store_->InsertDocument(*doc, info).ok());
  }

  std::unique_ptr<netmark::TempDir> dir_;
  std::unique_ptr<xmlstore::XmlStore> store_;
  QueryResultCache cache_;
  QueryPlanCache plans_;
  std::unique_ptr<QueryExecutor> executor_;
};

TEST_F(QueryCacheConcurrencyTest, ConcurrentReadersShareCachesSafely) {
  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 200;
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      const char* mix[] = {"context=Budget", "context=Overview",
                           "context=Budget&content=engine"};
      for (int i = 0; i < kQueriesPerReader; ++i) {
        auto q = ParseXdbQuery(mix[(r + i) % 3]);
        if (!q.ok()) { ++failures; continue; }
        auto hits = executor_->Execute(*q);
        if (!hits.ok()) ++failures;
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0);
  QueryResultCache::Snapshot snap = cache_.snapshot();
  // Steady epoch + 3 distinct queries: all but the first executions hit.
  EXPECT_EQ(snap.hits + snap.misses,
            static_cast<uint64_t>(kReaders * kQueriesPerReader));
  EXPECT_GT(snap.hits, snap.misses);
}

TEST_F(QueryCacheConcurrencyTest, CommitsAreNeverServedStale) {
  constexpr int kDocs = 30;
  std::atomic<bool> done{false};
  std::atomic<int> reader_failures{0};

  // Background readers keep the repetitive mix hot (forcing the cache to
  // straddle every epoch bump) while the main thread ingests and checks.
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      const char* mix[] = {"context=Budget", "context=Budget&content=engine",
                           "content=corpus"};
      int i = 0;
      while (!done.load(std::memory_order_relaxed)) {
        auto q = ParseXdbQuery(mix[i++ % 3]);
        if (!q.ok() || !executor_->Execute(*q).ok()) ++reader_failures;
      }
    });
  }

  for (int d = 0; d < kDocs; ++d) {
    std::string term = "uniqterm" + std::to_string(d);
    Insert("doc" + std::to_string(d) + ".xml",
           "<doc><h1>Budget</h1><p>" + term + " expansion</p></doc>");
    // The insert committed, so the epoch advanced: the next query MUST see
    // the new document even though "context=Budget" answers were cached a
    // moment ago at the old epoch.
    auto q = ParseXdbQuery("context=Budget&content=" + term);
    ASSERT_TRUE(q.ok());
    auto hits = executor_->Execute(*q);
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    ASSERT_EQ(hits->size(), 1u) << "post-commit query missed doc " << d;
    // The repetitive query also reflects the commit immediately.
    auto budget = ParseXdbQuery("context=Budget");
    ASSERT_TRUE(budget.ok());
    auto budget_hits = executor_->Execute(*budget);
    ASSERT_TRUE(budget_hits.ok());
    EXPECT_EQ(budget_hits->size(), static_cast<size_t>(d) + 2u);
  }

  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(reader_failures.load(), 0);
}

// A cached answer's bodies are one set of immutable documents shared by
// every reader: four threads compose, encode and serialize the same cache
// hit at once, and every reply is byte-identical to the one a cache-less
// executor composes.
TEST_F(QueryCacheConcurrencyTest, CachedBodiesAreSharedAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kRepliesPerThread = 50;
  Insert("more.xml",
         "<doc><h1>Budget</h1><p>engine <b>overrun</b> of <i>20</i> units</p>"
         "<table><row>q1</row></table>"
         "<h1>Budget</h1><p>second engine &amp; budget</p></doc>");
  for (const char* qs : {"context=Budget", "context=Budget&content=engine",
                         "xpath=//p"}) {
    SCOPED_TRACE(qs);
    auto q = ParseXdbQuery(qs);
    ASSERT_TRUE(q.ok());
    QueryExecutor uncached(store_.get());
    auto reference_hits = uncached.Execute(*q);
    ASSERT_TRUE(reference_hits.ok());
    ASSERT_FALSE(reference_hits->empty());
    const std::string reference =
        xml::Serialize(Encode(ComposeResultSet(*q, *reference_hits)));
    ASSERT_TRUE(executor_->Execute(*q).ok());  // caches the answer
    const uint64_t hits_before = cache_.snapshot().hits;

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kRepliesPerThread; ++i) {
          QueryExecutor::Stats stats;
          auto hits = executor_->Execute(*q, &stats);
          if (!hits.ok() || stats.cache_hits != 1) {
            ++mismatches;
            continue;
          }
          std::string reply = xml::Serialize(
              Encode(ComposeResultSet(*q, *hits, stats.quarantined_skips)));
          if (reply != reference) ++mismatches;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(cache_.snapshot().hits - hits_before,
              static_cast<uint64_t>(kThreads * kRepliesPerThread));
  }
}

TEST_F(QueryCacheConcurrencyTest, ConcurrentConfigureIsSafe) {
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_relaxed)) {
      auto q = ParseXdbQuery("context=Budget");
      if (q.ok()) (void)executor_->Execute(*q);
    }
  });
  for (int i = 0; i < 50; ++i) {
    ResultCacheOptions options;
    options.enabled = (i % 2 == 0);
    options.max_entries = 16;
    cache_.Configure(options);
  }
  done.store(true);
  reader.join();
}

}  // namespace
}  // namespace netmark::query
