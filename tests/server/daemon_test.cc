#include "server/daemon.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/temp_dir.h"

namespace netmark::server {
namespace {

class DaemonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = netmark::TempDir::Make("daemon");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<netmark::TempDir>(std::move(*dir));
    auto store = xmlstore::XmlStore::Open(dir_->Sub("store").string());
    ASSERT_TRUE(store.ok());
    store_ = std::move(*store);
    converters_ = convert::ConverterRegistry::Default();
    options_.drop_dir = dir_->Sub("drop");
    options_.poll_interval = std::chrono::milliseconds(20);
    // Tests drop fully-written files and sweep immediately; disable the
    // still-being-written deferral except where a test opts back in.
    options_.stable_age = std::chrono::milliseconds(0);
    daemon_ = std::make_unique<IngestionDaemon>(store_.get(), &converters_, options_);
    std::filesystem::create_directories(options_.drop_dir);
  }

  void Drop(const std::string& name, const std::string& content) {
    ASSERT_TRUE(netmark::WriteFile(options_.drop_dir / name, content).ok());
  }

  std::unique_ptr<netmark::TempDir> dir_;
  std::unique_ptr<xmlstore::XmlStore> store_;
  convert::ConverterRegistry converters_;
  DaemonOptions options_;
  std::unique_ptr<IngestionDaemon> daemon_;
};

TEST_F(DaemonTest, ProcessOnceIngestsMixedFormats) {
  Drop("a.txt", "OVERVIEW\nshuttle overview text\n");
  Drop("b.md", "# Risk\n\nthermal risk memo\n");
  Drop("c.xml", "<document><context>T</context><content>body</content></document>");
  auto processed = daemon_->ProcessOnce();
  ASSERT_TRUE(processed.ok());
  EXPECT_EQ(*processed, 3);
  EXPECT_EQ(store_->document_count(), 3u);
  EXPECT_EQ(daemon_->files_ingested(), 3u);
  // Queryable immediately.
  EXPECT_FALSE(store_->TextLookup("shuttle").empty());
}

TEST_F(DaemonTest, ProcessedFilesAreMovedNotReingested) {
  Drop("once.txt", "HEADING\nwords\n");
  ASSERT_EQ(*daemon_->ProcessOnce(), 1);
  ASSERT_EQ(*daemon_->ProcessOnce(), 0);  // drop dir now empty
  EXPECT_EQ(store_->document_count(), 1u);
  EXPECT_TRUE(
      std::filesystem::exists(options_.drop_dir / "processed" / "once.txt"));
}

TEST_F(DaemonTest, FailedFilesQuarantined) {
  std::string binary("\x7f"
                     "ELF\x00\x01\x02",
                     7);
  Drop("garbage.bin", binary);
  Drop("fine.txt", "OK HEADING\ncontent\n");
  auto processed = daemon_->ProcessOnce();
  ASSERT_TRUE(processed.ok());
  EXPECT_EQ(*processed, 1);
  EXPECT_EQ(daemon_->files_failed(), 1u);
  EXPECT_TRUE(
      std::filesystem::exists(options_.drop_dir / "failed" / "garbage.bin"));
  EXPECT_EQ(store_->document_count(), 1u);
}

TEST_F(DaemonTest, HiddenFilesIgnored) {
  Drop(".hidden.swp", "junk");
  EXPECT_EQ(*daemon_->ProcessOnce(), 0);
}

TEST_F(DaemonTest, BackgroundThreadPicksUpDrops) {
  ASSERT_TRUE(daemon_->Start().ok());
  Drop("bg.txt", "BACKGROUND HEADING\npicked up asynchronously\n");
  // Wait for the poll loop (bounded). Poll the daemon's atomic counter, not
  // the store — the store is single-writer and only safe to read once the
  // daemon thread has stopped.
  for (int i = 0; i < 200 && daemon_->files_ingested() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  daemon_->Stop();
  EXPECT_EQ(store_->document_count(), 1u);
  EXPECT_FALSE(store_->TextLookup("asynchronously").empty());
}

TEST_F(DaemonTest, FreshFileDeferredUntilSizeStable) {
  // Opt back into the half-copied-drop protection with a window so large
  // that only the cross-sweep size-stability rule can admit a file.
  options_.stable_age = std::chrono::hours(1);
  IngestionDaemon daemon(store_.get(), &converters_, options_);
  Drop("slow_copy.txt", "HEADING\npartial");
  EXPECT_EQ(*daemon.ProcessOnce(), 0);  // first sight: defer, don't fail
  EXPECT_EQ(daemon.files_failed(), 0u);
  EXPECT_TRUE(std::filesystem::exists(options_.drop_dir / "slow_copy.txt"));

  // The copy "continues": the signature changed, so it defers again.
  Drop("slow_copy.txt", "HEADING\npartial plus the rest of the file\n");
  EXPECT_EQ(*daemon.ProcessOnce(), 0);

  // Unchanged across two sweeps: ingested into processed/, not failed/.
  EXPECT_EQ(*daemon.ProcessOnce(), 1);
  EXPECT_EQ(daemon.files_failed(), 0u);
  EXPECT_TRUE(std::filesystem::exists(options_.drop_dir / "processed" /
                                      "slow_copy.txt"));
  EXPECT_GE(daemon.counters().deferred, 2u);
}

TEST_F(DaemonTest, QuietOldFilesIngestedOnFirstSweep) {
  options_.stable_age = std::chrono::milliseconds(30);
  IngestionDaemon daemon(store_.get(), &converters_, options_);
  Drop("settled.txt", "HEADING\nwritten a while ago\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(*daemon.ProcessOnce(), 1);  // mtime older than the window
}

TEST_F(DaemonTest, PerStageCountersTrackThePipeline) {
  Drop("one.txt", "HEADING\nfirst\n");
  Drop("two.md", "# Title\n\nsecond\n");
  std::string binary("\x7f"
                     "ELF\x00\x01\x02",
                     7);
  Drop("bad.bin", binary);
  ASSERT_EQ(*daemon_->ProcessOnce(), 2);
  DaemonCounters c = daemon_->counters();
  EXPECT_EQ(c.queued, 3u);
  EXPECT_EQ(c.converted, 2u);
  EXPECT_EQ(c.inserted, 2u);
  EXPECT_EQ(c.failed, 1u);
  EXPECT_EQ(c.deferred, 0u);
  EXPECT_GT(c.convert_ns, 0u);
  EXPECT_GT(c.insert_ns, 0u);
}

}  // namespace
}  // namespace netmark::server
