// /xdb over a store with a quarantined page: a section lost to corruption
// makes the answer partial, and stays partial when the result cache is on —
// an answer with quarantine skips is never cached as complete.

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "query/result_set.h"
#include "server/netmark_service.h"
#include "support/quarantined_store.h"

namespace netmark::server {
namespace {

HttpRequest XdbGet(const std::string& query) {
  HttpRequest req;
  req.method = "GET";
  req.target = "/xdb?" + query;
  req.path = "/xdb";
  req.query = query;
  return req;
}

class XdbQuarantineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = netmark::TempDir::Make("xdb_quarantine");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<netmark::TempDir>(std::move(*dir));
    ASSERT_NO_FATAL_FAILURE(testing_support::BuildQuarantinedStore(dir_->path()));
    auto store = xmlstore::XmlStore::Open(dir_->str());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    service_ = std::make_unique<NetmarkService>(store_.get());
    ASSERT_TRUE(service_->result_cache()->enabled());
  }

  query::ResultSet Answer(const std::string& query) {
    HttpResponse resp = service_->Handle(XdbGet(query));
    EXPECT_EQ(resp.status, 200) << resp.body;
    auto set = query::Decode(resp.body);
    EXPECT_TRUE(set.ok()) << set.status().ToString() << "\n" << resp.body;
    return set.ok() ? std::move(*set) : query::ResultSet{};
  }

  std::unique_ptr<netmark::TempDir> dir_;
  std::unique_ptr<xmlstore::XmlStore> store_;
  std::unique_ptr<NetmarkService> service_;
};

TEST_F(XdbQuarantineTest, SkippedSectionMarksTheAnswerPartialOnEveryRequest) {
  for (int request = 0; request < 2; ++request) {
    query::ResultSet set = Answer("context=Beta");
    EXPECT_TRUE(set.hits.empty()) << "request " << request;
    EXPECT_FALSE(set.complete()) << "request " << request;
    EXPECT_GE(set.quarantined, 1u) << "request " << request;
  }
  EXPECT_EQ(service_->result_cache()->snapshot().hits, 0u);
}

TEST_F(XdbQuarantineTest, CleanAnswerIsCachedAndComplete) {
  for (int request = 0; request < 2; ++request) {
    query::ResultSet set = Answer("context=Alpha");
    ASSERT_EQ(set.hits.size(), 1u) << "request " << request;
    EXPECT_TRUE(set.complete()) << "request " << request;
  }
  EXPECT_EQ(service_->result_cache()->snapshot().hits, 1u);
}

}  // namespace
}  // namespace netmark::server
