#include "storage/pager.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>

#include "common/env.h"
#include "common/temp_dir.h"

namespace netmark::storage {
namespace {

class PagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("pager");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    path_ = (dir_->path() / "pages.bin").string();
  }
  // XORs one byte of the on-disk page file (simulated at-rest bit rot).
  void FlipByte(size_t offset) {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
  }
  // Commit point: publishes the pager's dirty working copies under the next
  // epoch, so Flush (and the destructor) write them and readers see them.
  void Publish(Pager& pager) { pager.Publish(++epoch_); }

  std::unique_ptr<TempDir> dir_;
  std::string path_;
  Epoch epoch_ = 0;
};

TEST_F(PagerTest, FreshFileHasNoPages) {
  auto pager = Pager::Open(path_);
  ASSERT_TRUE(pager.ok());
  EXPECT_EQ((*pager)->page_count(), 0u);
  EXPECT_TRUE((*pager)->Fetch(0).status().IsInvalidArgument());
}

TEST_F(PagerTest, AllocateInitializesAndFetches) {
  auto pager = Pager::Open(path_);
  ASSERT_TRUE(pager.ok());
  auto id = (*pager)->Allocate();
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0u);
  auto page = (*pager)->Fetch(*id);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->slot_count(), 0);
  // New pages are born v1: the CRC trailer is reserved from the start.
  EXPECT_EQ(page->free_end(), kPageSize - kPageTrailerSize);
  EXPECT_EQ(PageVersion(page->raw()), kPageFormatV1);
  EXPECT_EQ((*pager)->page_count(), 1u);
}

TEST_F(PagerTest, DirtyPagesPersistAcrossReopen) {
  {
    auto pager = Pager::Open(path_);
    ASSERT_TRUE(pager.ok());
    for (int i = 0; i < 5; ++i) {
      auto id = (*pager)->Allocate();
      ASSERT_TRUE(id.ok());
      auto page = (*pager)->Fetch(*id);
      ASSERT_TRUE(page.ok());
      page->Insert("page " + std::to_string(i));
      (*pager)->MarkDirty(*id);
    }
    Publish(**pager);
    ASSERT_TRUE((*pager)->Flush().ok());
  }
  auto pager = Pager::Open(path_);
  ASSERT_TRUE(pager.ok());
  EXPECT_EQ((*pager)->page_count(), 5u);
  for (PageId i = 0; i < 5; ++i) {
    auto page = (*pager)->Fetch(i);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->Get(0), "page " + std::to_string(i));
  }
}

TEST_F(PagerTest, UnflushedChangesWrittenByDestructor) {
  {
    auto pager = Pager::Open(path_);
    ASSERT_TRUE(pager.ok());
    auto id = (*pager)->Allocate();
    ASSERT_TRUE(id.ok());
    auto page = (*pager)->Fetch(*id);
    page->Insert("auto-flushed");
    (*pager)->MarkDirty(*id);
    Publish(**pager);
    // no explicit Flush: the destructor must write back
  }
  auto pager = Pager::Open(path_);
  ASSERT_TRUE(pager.ok());
  auto page = (*pager)->Fetch(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Get(0), "auto-flushed");
}

TEST_F(PagerTest, ReadCountsTrackCacheMisses) {
  {
    auto pager = Pager::Open(path_);
    ASSERT_TRUE(pager.ok());
    for (int i = 0; i < 3; ++i) ASSERT_TRUE((*pager)->Allocate().ok());
    Publish(**pager);
    ASSERT_TRUE((*pager)->Flush().ok());
    EXPECT_EQ((*pager)->pages_written(), 3u);
    // Freshly allocated pages are cached: no reads.
    EXPECT_EQ((*pager)->pages_read(), 0u);
  }
  auto pager = Pager::Open(path_);
  ASSERT_TRUE(pager.ok());
  ASSERT_TRUE((*pager)->Fetch(1).ok());
  ASSERT_TRUE((*pager)->Fetch(1).ok());  // second fetch hits the cache
  EXPECT_EQ((*pager)->pages_read(), 1u);
}

TEST_F(PagerTest, CorruptSizeRejected) {
  ASSERT_TRUE(WriteFile(path_, std::string(kPageSize + 17, 'x')).ok());
  EXPECT_TRUE(Pager::Open(path_).status().IsCorruption());
}

TEST_F(PagerTest, ManyPagesSurviveRoundTrip) {
  const int kPages = 300;  // ~2.4 MB file
  {
    auto pager = Pager::Open(path_);
    ASSERT_TRUE(pager.ok());
    for (int i = 0; i < kPages; ++i) {
      auto id = (*pager)->Allocate();
      ASSERT_TRUE(id.ok());
      auto page = (*pager)->Fetch(*id);
      std::string payload = "payload-" + std::to_string(i);
      page->Insert(payload);
      (*pager)->MarkDirty(*id);
    }
    Publish(**pager);
    ASSERT_TRUE((*pager)->Flush().ok());
  }
  auto pager = Pager::Open(path_);
  ASSERT_TRUE(pager.ok());
  ASSERT_EQ((*pager)->page_count(), static_cast<PageId>(kPages));
  for (int i = 0; i < kPages; i += 37) {
    auto page = (*pager)->Fetch(static_cast<PageId>(i));
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->Get(0), "payload-" + std::to_string(i));
  }
}

TEST_F(PagerTest, FlushPropagatesWriteErrorAndKeepsPageDirty) {
  // Page 1's write (the env's 2nd write overall) fails once with EIO; pages
  // 0 and 2 must still be attempted.
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kWriteEio;
  spec.nth = 2;
  spec.sticky = false;
  FaultInjectingEnv env(spec);
  auto pager = Pager::Open(path_, PagerOptions{&env});
  ASSERT_TRUE(pager.ok());
  for (int i = 0; i < 3; ++i) {
    auto id = (*pager)->Allocate();
    ASSERT_TRUE(id.ok());
    auto page = (*pager)->Fetch(*id);
    page->Insert("page " + std::to_string(i));
    (*pager)->MarkDirty(*id);
  }
  Publish(**pager);
  netmark::Status st = (*pager)->Flush();
  EXPECT_TRUE(st.IsIOError()) << st.ToString();
  EXPECT_EQ(env.faults_injected(), 1u);
  EXPECT_EQ((*pager)->pages_written(), 2u);

  // The failed page stayed dirty: an unimpeded retry completes the flush.
  ASSERT_TRUE((*pager)->Flush().ok());
  EXPECT_EQ((*pager)->pages_written(), 3u);
  pager->reset();

  auto reopened = Pager::Open(path_);
  ASSERT_TRUE(reopened.ok());
  for (PageId i = 0; i < 3; ++i) {
    auto page = (*reopened)->Fetch(i);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->Get(0), "page " + std::to_string(i));
  }
}

TEST_F(PagerTest, ShortWriteIsCompletedNotSilentlyTruncated) {
  // The File layer must loop on partial writes: a short write mid-page (the
  // classic pre-ENOSPC symptom) is transparently completed, and the page
  // round-trips intact — checksum included.
  FaultSpec spec;
  spec.kind = FaultSpec::Kind::kWriteShort;
  spec.nth = 1;
  spec.sticky = false;
  FaultInjectingEnv env(spec);
  {
    auto pager = Pager::Open(path_, PagerOptions{&env});
    ASSERT_TRUE(pager.ok());
    auto id = (*pager)->Allocate();
    ASSERT_TRUE(id.ok());
    auto page = (*pager)->Fetch(*id);
    page->Insert("short write victim");
    (*pager)->MarkDirty(*id);
    Publish(**pager);
    ASSERT_TRUE((*pager)->Flush().ok());
    EXPECT_EQ(env.faults_injected(), 1u);
  }
  auto pager = Pager::Open(path_);
  ASSERT_TRUE(pager.ok());
  auto page = (*pager)->Fetch(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Get(0), "short write victim");
}

TEST_F(PagerTest, ChecksumRoundTripAcrossReopen) {
  {
    auto pager = Pager::Open(path_);
    ASSERT_TRUE(pager.ok());
    auto id = (*pager)->Allocate();
    ASSERT_TRUE(id.ok());
    auto page = (*pager)->Fetch(*id);
    page->Insert("checksummed");
    (*pager)->MarkDirty(*id);
    Publish(**pager);
    ASSERT_TRUE((*pager)->Flush().ok());
  }
  // The flushed bytes carry a valid trailer...
  std::ifstream f(path_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
  ASSERT_EQ(bytes.size(), kPageSize);
  EXPECT_TRUE(PageVerifyChecksum(reinterpret_cast<const uint8_t*>(bytes.data())));
  // ...and a verifying reopen serves the page.
  auto pager = Pager::Open(path_);
  ASSERT_TRUE(pager.ok());
  auto page = (*pager)->Fetch(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->Get(0), "checksummed");
  EXPECT_EQ((*pager)->quarantined_count(), 0u);
}

TEST_F(PagerTest, BitFlipQuarantinesPageOnRead) {
  {
    auto pager = Pager::Open(path_);
    ASSERT_TRUE(pager.ok());
    for (int i = 0; i < 2; ++i) {
      auto id = (*pager)->Allocate();
      ASSERT_TRUE(id.ok());
      auto page = (*pager)->Fetch(*id);
      page->Insert("page " + std::to_string(i));
      (*pager)->MarkDirty(*id);
    }
    Publish(**pager);
    ASSERT_TRUE((*pager)->Flush().ok());
  }
  FlipByte(kPageSize + 100);  // one byte of page 1's record area

  auto pager = Pager::Open(path_);
  ASSERT_TRUE(pager.ok());
  auto bad = (*pager)->Fetch(1);
  EXPECT_TRUE(bad.status().IsDataLoss()) << bad.status().ToString();
  EXPECT_TRUE((*pager)->IsQuarantined(1));
  EXPECT_EQ((*pager)->quarantined_count(), 1u);
  EXPECT_EQ((*pager)->QuarantinedPages(), (std::vector<PageId>{1}));
  // Quarantine is sticky: repeat fetches fail fast, same status.
  EXPECT_TRUE((*pager)->Fetch(1).status().IsDataLoss());
  // The intact page is unaffected.
  auto good = (*pager)->Fetch(0);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->Get(0), "page 0");
}

TEST_F(PagerTest, VerifyOnDiskQuarantinesUncachedCorruption) {
  {
    auto pager = Pager::Open(path_);
    ASSERT_TRUE(pager.ok());
    auto id = (*pager)->Allocate();
    ASSERT_TRUE(id.ok());
    auto page = (*pager)->Fetch(*id);
    page->Insert("scrub target");
    (*pager)->MarkDirty(*id);
    Publish(**pager);
    ASSERT_TRUE((*pager)->Flush().ok());
  }
  FlipByte(300);

  auto pager = Pager::Open(path_);
  ASSERT_TRUE(pager.ok());
  auto verified = (*pager)->VerifyOnDisk(0);
  ASSERT_TRUE(verified.ok());
  EXPECT_FALSE(*verified);
  EXPECT_TRUE((*pager)->IsQuarantined(0));
  EXPECT_TRUE((*pager)->Fetch(0).status().IsDataLoss());
  // Re-probing an already-quarantined page reports true (known, contained).
  auto again = (*pager)->VerifyOnDisk(0);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(*again);
  // Out-of-range probes are an argument error, not corruption.
  EXPECT_TRUE((*pager)->VerifyOnDisk(99).status().IsInvalidArgument());
}

TEST_F(PagerTest, VerifyOnDiskSelfHealsCachedCorruption) {
  auto pager = Pager::Open(path_);
  ASSERT_TRUE(pager.ok());
  auto id = (*pager)->Allocate();
  ASSERT_TRUE(id.ok());
  auto page = (*pager)->Fetch(*id);
  page->Insert("healable");
  (*pager)->MarkDirty(*id);
  Publish(**pager);
  ASSERT_TRUE((*pager)->Flush().ok());

  // Rot the on-disk copy while a clean copy is still cached: the scrubber
  // probe re-dirties the page instead of quarantining it...
  FlipByte(200);
  auto verified = (*pager)->VerifyOnDisk(0);
  ASSERT_TRUE(verified.ok());
  EXPECT_FALSE(*verified);
  EXPECT_FALSE((*pager)->IsQuarantined(0));

  // ...so the next flush rewrites good bytes over the rot.
  ASSERT_TRUE((*pager)->Flush().ok());
  auto healed = (*pager)->VerifyOnDisk(0);
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(*healed);
}

TEST_F(PagerTest, ClearedVersionByteDoesNotSkipVerification) {
  {
    auto pager = Pager::Open(path_);
    ASSERT_TRUE(pager.ok());
    auto id = (*pager)->Allocate();
    ASSERT_TRUE(id.ok());
    auto page = (*pager)->Fetch(*id);
    page->Insert("payload");
    (*pager)->MarkDirty(*id);
    Publish(**pager);
    ASSERT_TRUE((*pager)->Flush().ok());
  }
  // Clear the version byte and zero the trailer: the page claims to predate
  // checksums. The trailer alone decides, so the page is quarantined rather
  // than served unverified.
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    char zero[kPageTrailerSize] = {0};
    f.seekp(4);
    f.write(zero, 1);
    f.seekp(static_cast<std::streamoff>(kPageSize - kPageTrailerSize));
    f.write(zero, kPageTrailerSize);
  }
  auto pager = Pager::Open(path_);
  ASSERT_TRUE(pager.ok());
  auto page = (*pager)->Fetch(0);
  EXPECT_TRUE(page.status().IsDataLoss()) << page.status().ToString();
  EXPECT_EQ((*pager)->quarantined_count(), 1u);
}

TEST_F(PagerTest, AllZeroPageIsQuarantined) {
  {
    std::ofstream f(path_, std::ios::binary);
    std::string zeros(kPageSize, '\0');
    f.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  auto pager = Pager::Open(path_);
  ASSERT_TRUE(pager.ok());
  ASSERT_EQ((*pager)->page_count(), 1u);
  EXPECT_TRUE((*pager)->Fetch(0).status().IsDataLoss());
  EXPECT_TRUE((*pager)->IsQuarantined(0));
  EXPECT_EQ((*pager)->quarantined_count(), 1u);
}

TEST_F(PagerTest, UnpublishedWorkingCopyNeverReachesFile) {
  // WAL-before-heap (docs/mvcc.md): only published versions are flushed, so
  // an uncommitted edit or allocation stays out of the file even through an
  // explicit Flush and the destructor's write-back.
  {
    auto pager = Pager::Open(path_);
    ASSERT_TRUE(pager.ok());
    auto id = (*pager)->Allocate();
    ASSERT_TRUE(id.ok());
    auto page = (*pager)->Fetch(*id);
    ASSERT_TRUE(page.ok());
    page->Insert("committed");
    (*pager)->MarkDirty(*id);
    Publish(**pager);
    ASSERT_TRUE((*pager)->Flush().ok());

    auto edit = (*pager)->Fetch(*id);
    ASSERT_TRUE(edit.ok());
    edit->Insert("uncommitted edit");
    (*pager)->MarkDirty(*id);
    auto born = (*pager)->Allocate();
    ASSERT_TRUE(born.ok());
    auto born_page = (*pager)->Fetch(*born);
    ASSERT_TRUE(born_page.ok());
    born_page->Insert("uncommitted page");
    (*pager)->MarkDirty(*born);
    ASSERT_TRUE((*pager)->Flush().ok());
    EXPECT_EQ((*pager)->pages_written(), 1u);
  }
  std::ifstream f(path_, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
  ASSERT_EQ(bytes.size(), kPageSize);
  EXPECT_NE(bytes.find("committed"), std::string::npos);
  EXPECT_EQ(bytes.find("uncommitted"), std::string::npos);

  auto pager = Pager::Open(path_);
  ASSERT_TRUE(pager.ok());
  EXPECT_EQ((*pager)->page_count(), 1u);
  auto page = (*pager)->Fetch(0);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->slot_count(), 1);
  EXPECT_EQ(page->Get(0), "committed");
}

TEST_F(PagerTest, TakeDirtySinceMarkTracksAllocationsAndDirties) {
  auto pager = Pager::Open(path_);
  ASSERT_TRUE(pager.ok());
  EXPECT_TRUE((*pager)->TakeDirtySinceMark().empty());
  auto a = (*pager)->Allocate();
  auto b = (*pager)->Allocate();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  (*pager)->MarkDirty(*a);
  std::vector<PageId> taken = (*pager)->TakeDirtySinceMark();
  EXPECT_EQ(taken, (std::vector<PageId>{*a, *b}));  // sorted, deduplicated
  // The call clears the mark; flushing does not repopulate it.
  EXPECT_TRUE((*pager)->TakeDirtySinceMark().empty());
  (*pager)->MarkDirty(*b);
  EXPECT_EQ((*pager)->TakeDirtySinceMark(), (std::vector<PageId>{*b}));
}

TEST(RowIdTest, PackUnpackRoundTrip) {
  for (RowId id : {RowId(0, 0), RowId(1, 2), RowId(123456, 65535),
                   RowId(0xFFFFFFFE, 1)}) {
    EXPECT_EQ(RowId::Unpack(id.Pack()), id);
  }
  EXPECT_FALSE(RowId::Unpack(RowId::kInvalidPacked).valid());
  EXPECT_EQ(kInvalidRowId.Pack(), RowId::kInvalidPacked);
  EXPECT_LT(RowId(1, 5), RowId(2, 0));
  EXPECT_LT(RowId(1, 5), RowId(1, 6));
}

}  // namespace
}  // namespace netmark::storage
