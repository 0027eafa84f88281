#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/env.h"
#include "common/temp_dir.h"
#include "storage/recovery.h"

namespace netmark::storage {
namespace {

namespace fs = std::filesystem;

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("wal");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    wal_path_ = (dir_->path() / "wal.nmk").string();
  }

  /// A full page image filled with `fill`, stamped with `page_id` so every
  /// image is distinguishable.
  std::string Image(uint8_t fill, PageId page_id) {
    std::string image(kPageSize, static_cast<char>(fill));
    std::memcpy(image.data(), &page_id, sizeof(page_id));
    return image;
  }

  std::string FileBytes(const std::string& path) {
    auto content = ReadFile(path);
    EXPECT_TRUE(content.ok()) << content.status().ToString();
    return content.ok() ? *content : std::string();
  }

  std::unique_ptr<TempDir> dir_;
  std::string wal_path_;
};

TEST_F(WalTest, RoundTripCommittedTransactions) {
  {
    auto wal = Wal::Open(wal_path_);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    std::string a = Image(0xAA, 0), b = Image(0xBB, 1);
    (*wal)->StagePageImage(1, "XML", 0, reinterpret_cast<const uint8_t*>(a.data()));
    (*wal)->StagePageImage(1, "DOC", 1, reinterpret_cast<const uint8_t*>(b.data()));
    ASSERT_TRUE((*wal)->AppendCommit(1).ok());
    std::string c = Image(0xCC, 2);
    (*wal)->StagePageImage(2, "XML", 2, reinterpret_cast<const uint8_t*>(c.data()));
    ASSERT_TRUE((*wal)->AppendCommit(2).ok());
  }
  auto scan = Wal::ReadRecords(wal_path_);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_FALSE(scan->torn_tail);
  ASSERT_EQ(scan->records.size(), 5u);  // 3 images + 2 commits
  EXPECT_EQ(scan->records[0].type, WalRecordType::kPageImage);
  EXPECT_EQ(scan->records[0].table, "XML");
  EXPECT_EQ(scan->records[0].page_id, 0u);
  EXPECT_EQ(scan->records[0].image, Image(0xAA, 0));
  EXPECT_EQ(scan->records[2].type, WalRecordType::kCommit);
  EXPECT_EQ(scan->records[2].txn_id, 1u);
  EXPECT_EQ(scan->records[4].type, WalRecordType::kCommit);
  // LSNs strictly increase.
  for (size_t i = 1; i < scan->records.size(); ++i) {
    EXPECT_GT(scan->records[i].lsn, scan->records[i - 1].lsn);
  }
}

TEST_F(WalTest, CrcCorruptedTailIsTruncatedNotReplayed) {
  uint64_t clean_size = 0;
  {
    auto wal = Wal::Open(wal_path_);
    ASSERT_TRUE(wal.ok());
    std::string a = Image(0x11, 0);
    (*wal)->StagePageImage(1, "T", 0, reinterpret_cast<const uint8_t*>(a.data()));
    ASSERT_TRUE((*wal)->AppendCommit(1).ok());
    clean_size = (*wal)->size_bytes();
    std::string b = Image(0x22, 1);
    (*wal)->StagePageImage(2, "T", 1, reinterpret_cast<const uint8_t*>(b.data()));
    ASSERT_TRUE((*wal)->AppendCommit(2).ok());
  }
  // Flip one byte inside the second transaction's page image: its CRC no
  // longer matches, so the scan must stop at the first transaction.
  {
    std::fstream f(wal_path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(clean_size) + 200);
    char byte = 0x7F;
    f.write(&byte, 1);
  }
  auto scan = Wal::ReadRecords(wal_path_);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->torn_tail);
  EXPECT_EQ(scan->valid_bytes, clean_size);
  ASSERT_EQ(scan->records.size(), 2u);  // txn 1 only
  EXPECT_EQ(scan->records[0].image, Image(0x11, 0));

  // Reopening truncates the torn tail away and appends after it.
  {
    auto wal = Wal::Open(wal_path_);
    ASSERT_TRUE(wal.ok());
    EXPECT_EQ((*wal)->size_bytes(), clean_size);
    std::string c = Image(0x33, 2);
    (*wal)->StagePageImage(3, "T", 2, reinterpret_cast<const uint8_t*>(c.data()));
    ASSERT_TRUE((*wal)->AppendCommit(3).ok());
  }
  auto rescan = Wal::ReadRecords(wal_path_);
  ASSERT_TRUE(rescan.ok());
  EXPECT_FALSE(rescan->torn_tail);
  ASSERT_EQ(rescan->records.size(), 4u);
  EXPECT_EQ(rescan->records[2].image, Image(0x33, 2));
  // The fresh record's LSN continues past the torn transaction's.
  EXPECT_GT(rescan->records[3].lsn, scan->records[1].lsn);
}

TEST_F(WalTest, ShortTailIsTruncated) {
  {
    auto wal = Wal::Open(wal_path_);
    ASSERT_TRUE(wal.ok());
    std::string a = Image(0x44, 0);
    (*wal)->StagePageImage(1, "T", 0, reinterpret_cast<const uint8_t*>(a.data()));
    ASSERT_TRUE((*wal)->AppendCommit(1).ok());
  }
  uint64_t full = fs::file_size(wal_path_);
  // Cut the file mid-commit-record: a crash during the append.
  fs::resize_file(wal_path_, full - 10);
  auto scan = Wal::ReadRecords(wal_path_);
  ASSERT_TRUE(scan.ok());
  EXPECT_TRUE(scan->torn_tail);
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->records[0].type, WalRecordType::kPageImage);
}

TEST_F(WalTest, ReadErrorFailsScanThroughEnv) {
  {
    auto wal = Wal::Open(wal_path_);
    ASSERT_TRUE(wal.ok());
    std::string a = Image(0x66, 0);
    (*wal)->StagePageImage(1, "T", 0, reinterpret_cast<const uint8_t*>(a.data()));
    ASSERT_TRUE((*wal)->AppendCommit(1).ok());
  }
  // A failed read is an error, never an empty or torn scan (which Open would
  // answer by truncating committed records away).
  auto spec = FaultSpec::Parse("read_eio:1");
  ASSERT_TRUE(spec.ok());
  FaultInjectingEnv env(*spec);
  auto scan = Wal::ReadRecords(wal_path_, &env);
  EXPECT_TRUE(scan.status().IsIOError()) << scan.status().ToString();
  EXPECT_EQ(env.reads(), 1u);
  // The fault was one-shot: the next scan through the same env succeeds.
  auto rescan = Wal::ReadRecords(wal_path_, &env);
  ASSERT_TRUE(rescan.ok()) << rescan.status().ToString();
  EXPECT_EQ(rescan->records.size(), 2u);
}

TEST_F(WalTest, DiscardStagedWritesNothing) {
  auto wal = Wal::Open(wal_path_);
  ASSERT_TRUE(wal.ok());
  std::string a = Image(0x55, 0);
  (*wal)->StagePageImage(1, "T", 0, reinterpret_cast<const uint8_t*>(a.data()));
  (*wal)->DiscardStaged();
  EXPECT_EQ((*wal)->size_bytes(), 0u);
  EXPECT_EQ(fs::file_size(wal_path_), 0u);
}

TEST_F(WalTest, LsnsKeepCountingAcrossTruncation) {
  auto wal = Wal::Open(wal_path_);
  ASSERT_TRUE(wal.ok());
  std::string a = Image(0x66, 0);
  (*wal)->StagePageImage(1, "T", 0, reinterpret_cast<const uint8_t*>(a.data()));
  ASSERT_TRUE((*wal)->AppendCommit(1).ok());
  uint64_t lsn_before = (*wal)->last_lsn();
  ASSERT_TRUE((*wal)->TruncateAll().ok());
  EXPECT_EQ((*wal)->size_bytes(), 0u);
  (*wal)->StagePageImage(2, "T", 0, reinterpret_cast<const uint8_t*>(a.data()));
  ASSERT_TRUE((*wal)->AppendCommit(2).ok());
  EXPECT_GT((*wal)->last_lsn(), lsn_before);
}

class RecoveryTest : public WalTest {
 protected:
  void SetUp() override {
    WalTest::SetUp();
    heap_path_ = (dir_->path() / "T.heap").string();
    // The heap exists but holds nothing: every committed byte lives in the
    // log only, exactly the state a crash before any checkpoint leaves.
    std::ofstream(heap_path_).close();
  }
  std::string heap_path_;
};

TEST_F(RecoveryTest, ReplaysCommittedSkipsUncommitted) {
  {
    auto wal = Wal::Open(wal_path_);
    ASSERT_TRUE(wal.ok());
    std::string p0 = Image(0xA0, 0), p1 = Image(0xA1, 1);
    (*wal)->StagePageImage(1, "T", 0, reinterpret_cast<const uint8_t*>(p0.data()));
    (*wal)->StagePageImage(1, "T", 1, reinterpret_cast<const uint8_t*>(p1.data()));
    ASSERT_TRUE((*wal)->AppendCommit(1).ok());
    std::string p2 = Image(0xA2, 2);
    (*wal)->StagePageImage(2, "T", 2, reinterpret_cast<const uint8_t*>(p2.data()));
    ASSERT_TRUE((*wal)->AppendCommit(2).ok());
  }
  // Drop txn 2's commit record from the tail: it becomes an uncommitted
  // transaction and must NOT be replayed.
  uint64_t full = fs::file_size(wal_path_);
  constexpr uint64_t kCommitRecordBytes = 8 + 17;  // frame header + body
  fs::resize_file(wal_path_, full - kCommitRecordBytes);

  auto stats = RecoverDatabase(dir_->str(), wal_path_);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->performed);
  EXPECT_EQ(stats->committed_txns, 1u);
  EXPECT_EQ(stats->uncommitted_txns, 1u);
  EXPECT_EQ(stats->pages_applied, 2u);

  std::string heap = FileBytes(heap_path_);
  ASSERT_EQ(heap.size(), 2 * kPageSize);  // txn 2's page 2 was never applied
  EXPECT_EQ(heap.substr(0, kPageSize), Image(0xA0, 0));
  EXPECT_EQ(heap.substr(kPageSize, kPageSize), Image(0xA1, 1));
  // Recovery truncates the log once the heap is durable.
  EXPECT_EQ(fs::file_size(wal_path_), 0u);
}

TEST_F(RecoveryTest, LaterImageOfSamePageWins) {
  {
    auto wal = Wal::Open(wal_path_);
    ASSERT_TRUE(wal.ok());
    std::string v1 = Image(0xB1, 0), v2 = Image(0xB2, 0);
    (*wal)->StagePageImage(1, "T", 0, reinterpret_cast<const uint8_t*>(v1.data()));
    ASSERT_TRUE((*wal)->AppendCommit(1).ok());
    (*wal)->StagePageImage(2, "T", 0, reinterpret_cast<const uint8_t*>(v2.data()));
    ASSERT_TRUE((*wal)->AppendCommit(2).ok());
  }
  auto stats = RecoverDatabase(dir_->str(), wal_path_);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(FileBytes(heap_path_), Image(0xB2, 0));
}

TEST_F(RecoveryTest, RecoveryIsIdempotent) {
  {
    auto wal = Wal::Open(wal_path_);
    ASSERT_TRUE(wal.ok());
    std::string p0 = Image(0xC0, 0), p1 = Image(0xC1, 1);
    (*wal)->StagePageImage(1, "T", 0, reinterpret_cast<const uint8_t*>(p0.data()));
    (*wal)->StagePageImage(1, "T", 1, reinterpret_cast<const uint8_t*>(p1.data()));
    ASSERT_TRUE((*wal)->AppendCommit(1).ok());
  }
  std::string log_snapshot = FileBytes(wal_path_);

  ASSERT_TRUE(RecoverDatabase(dir_->str(), wal_path_).ok());
  std::string heap_after_first = FileBytes(heap_path_);

  // Crash-during-recovery model: the heap was already (partially or fully)
  // rewritten but the log survived. Replaying the identical log again must
  // converge to the same heap bytes.
  ASSERT_TRUE(WriteFileAtomic(wal_path_, log_snapshot).ok());
  auto second = RecoverDatabase(dir_->str(), wal_path_);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->performed);
  EXPECT_EQ(FileBytes(heap_path_), heap_after_first);

  // Third pass over the now-empty log: nothing to do.
  auto third = RecoverDatabase(dir_->str(), wal_path_);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->performed);
}

TEST_F(RecoveryTest, EmptyOrMissingLogIsANoOp) {
  auto stats = RecoverDatabase(dir_->str(), (dir_->path() / "nope.nmk").string());
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->performed);
}

}  // namespace
}  // namespace netmark::storage
