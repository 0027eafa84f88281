#include "storage/pager.h"

#include <algorithm>
#include <cstring>

#include "common/string_util.h"

namespace netmark::storage {

namespace {

std::shared_ptr<uint8_t[]> MakePageBuffer() {
  return std::shared_ptr<uint8_t[]>(new uint8_t[kPageSize]);
}

std::shared_ptr<uint8_t[]> ClonePageBuffer(const uint8_t* src) {
  auto buf = MakePageBuffer();
  std::memcpy(buf.get(), src, kPageSize);
  return buf;
}

}  // namespace

netmark::Result<std::unique_ptr<Pager>> Pager::Open(const std::string& path,
                                                    PagerOptions options) {
  netmark::Env* env = options.env != nullptr ? options.env : netmark::Env::Default();
  NETMARK_ASSIGN_OR_RETURN(std::unique_ptr<netmark::File> file,
                           env->OpenFile(path, /*create=*/true));
  NETMARK_ASSIGN_OR_RETURN(uint64_t size, file->Size());
  if (size % kPageSize != 0) {
    return netmark::Status::Corruption(
        netmark::StringPrintf("page file %s has size %llu not a multiple of %zu",
                              path.c_str(), static_cast<unsigned long long>(size),
                              kPageSize));
  }
  auto count = static_cast<PageId>(size / kPageSize);
  return std::unique_ptr<Pager>(new Pager(std::move(file), count, options));
}

Pager::~Pager() { (void)Flush(); }

netmark::Result<PageId> Pager::Allocate() {
  std::lock_guard<std::mutex> lock(mu_);
  PageId count = page_count_.load(std::memory_order_relaxed);
  if (count == kInvalidPage) {
    return netmark::Status::CapacityExceeded("page file full: " + file_->path());
  }
  PageId id = count;
  auto buf = MakePageBuffer();
  std::memset(buf.get(), 0, kPageSize);
  Page(buf.get()).Init();
  Entry& entry = entries_[id];
  entry.working = std::move(buf);
  // Born unpublished: readers resolve NotFound (an empty page, semantically)
  // until the transaction publishes.
  entry.working_dirty = true;
  entry.first_tag = kLatestEpoch;
  dirty_since_mark_.insert(id);
  page_count_.store(count + 1, std::memory_order_release);
  return id;
}

netmark::Result<Pager::Entry*> Pager::LoadEntryLocked(PageId id) {
  auto it = entries_.find(id);
  if (it != entries_.end()) return &it->second;
  if (quarantined_.count(id) != 0) {
    return netmark::Status::DataLoss(netmark::StringPrintf(
        "page %u of %s is quarantined (bad checksum)", id, file_->path().c_str()));
  }
  PageId count = page_count_.load(std::memory_order_relaxed);
  if (id >= count) {
    return netmark::Status::InvalidArgument(
        netmark::StringPrintf("page %u out of range (%u pages)", id, count));
  }
  auto buf = MakePageBuffer();
  NETMARK_RETURN_NOT_OK(
      file_->Read(static_cast<uint64_t>(id) * kPageSize, kPageSize, buf.get()));
  pages_read_.fetch_add(1, std::memory_order_relaxed);
  if (!PageVerifyChecksum(buf.get())) {
    quarantined_.insert(id);
    return netmark::Status::DataLoss(netmark::StringPrintf(
        "page %u of %s failed checksum verification", id, file_->path().c_str()));
  }
  Entry& entry = entries_[id];
  // Epoch 0 is the on-disk state at open (WAL recovery included).
  entry.versions.emplace_back(Epoch{0}, std::move(buf));
  retained_versions_.fetch_add(1, std::memory_order_relaxed);
  return &entry;
}

netmark::Result<Page> Pager::Fetch(PageId id) {
  // The lock covers the map probe and (on a miss) the read + insert. A miss
  // therefore serializes concurrent callers briefly, but entries are never
  // evicted so the common case — cache hit — is one map lookup, and the
  // returned buffer stays stable after the lock is released.
  std::lock_guard<std::mutex> lock(mu_);
  NETMARK_ASSIGN_OR_RETURN(Entry * entry, LoadEntryLocked(id));
  if (entry->working == nullptr) {
    // Copy-on-write point: the writer gets a private clone of the current
    // published version; readers keep seeing the published bytes until
    // Publish() swaps the clone in.
    entry->working = ClonePageBuffer(entry->versions.back().second.get());
  }
  return Page(entry->working.get());
}

netmark::Result<PageRef> Pager::FetchAt(PageId id, Epoch epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  NETMARK_ASSIGN_OR_RETURN(Entry * entry, LoadEntryLocked(id));
  if (epoch == kWriterEpoch && entry->working != nullptr) {
    return PageRef(entry->working);
  }
  if (epoch == kLatestEpoch || epoch == kWriterEpoch) {
    if (!entry->versions.empty()) return PageRef(entry->versions.back().second);
    return netmark::Status::NotFound(netmark::StringPrintf(
        "page %u of %s has no published version yet", id, file_->path().c_str()));
  }
  // Newest version tagged <= epoch: versions are sorted ascending by tag.
  const auto& versions = entry->versions;
  auto it = std::upper_bound(
      versions.begin(), versions.end(), epoch,
      [](Epoch e, const auto& version) { return e < version.first; });
  if (it == versions.begin()) {
    if (epoch < entry->first_tag) {
      return netmark::Status::NotFound(netmark::StringPrintf(
          "page %u of %s was born after epoch %llu", id, file_->path().c_str(),
          static_cast<unsigned long long>(epoch)));
    }
    return netmark::Status::SnapshotTooOld(netmark::StringPrintf(
        "page %u of %s: version for epoch %llu dropped by the retention cap",
        id, file_->path().c_str(), static_cast<unsigned long long>(epoch)));
  }
  return PageRef(std::prev(it)->second);
}

void Pager::MarkDirty(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[id].working_dirty = true;
  dirty_since_mark_.insert(id);
}

void Pager::DropVersionLocked(Entry& entry, size_t index) {
  entry.versions.erase(entry.versions.begin() +
                       static_cast<std::ptrdiff_t>(index));
  retained_versions_.fetch_sub(1, std::memory_order_relaxed);
  versions_reclaimed_.fetch_add(1, std::memory_order_relaxed);
}

void Pager::Publish(Epoch epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, entry] : entries_) {
    if (entry.working == nullptr) continue;
    if (!entry.working_dirty) {
      // Fetched (e.g. a free-space probe) but never mutated: drop the clone
      // rather than publishing a duplicate version.
      entry.working.reset();
      continue;
    }
    // Stamp before the buffer becomes visible — after this point it is
    // immutable. Flush then writes it verbatim.
    PageStampChecksum(entry.working.get());
    if (entry.versions.empty()) entry.first_tag = epoch;
    entry.versions.emplace_back(epoch, std::move(entry.working));
    entry.working = nullptr;
    entry.working_dirty = false;
    entry.disk_dirty = true;
    retained_versions_.fetch_add(1, std::memory_order_relaxed);
    if (max_retained_versions_ != 0) {
      while (entry.versions.size() > max_retained_versions_) {
        DropVersionLocked(entry, 0);
      }
    }
  }
}

uint64_t Pager::ReclaimVersions(const std::vector<Epoch>& pins, Epoch cap) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t reclaimed = 0;
  for (auto& [id, entry] : entries_) {
    auto& versions = entry.versions;
    if (versions.size() <= 1) continue;
    size_t kept = 0;
    for (size_t i = 0; i < versions.size(); ++i) {
      bool keep = (i + 1 == versions.size());  // current version always stays
      // A version superseded after the GC pass began (successor tag > cap)
      // stays: a reader may have pinned an epoch in that window after the
      // pin scan and would be missed by `pins` (see docs/mvcc.md).
      if (!keep) keep = versions[i + 1].first > cap;
      if (!keep) {
        // Version i serves pins in [tag_i, tag_{i+1}): keep it while one
        // exists.
        auto pin = std::lower_bound(pins.begin(), pins.end(), versions[i].first);
        keep = pin != pins.end() && *pin < versions[i + 1].first;
      }
      if (keep) {
        if (kept != i) versions[kept] = std::move(versions[i]);
        ++kept;
      } else {
        ++reclaimed;
      }
    }
    versions.resize(kept);
  }
  if (reclaimed != 0) {
    retained_versions_.fetch_sub(reclaimed, std::memory_order_relaxed);
    versions_reclaimed_.fetch_add(reclaimed, std::memory_order_relaxed);
  }
  return reclaimed;
}

std::vector<PageId> Pager::TakeDirtySinceMark() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PageId> out(dirty_since_mark_.begin(), dirty_since_mark_.end());
  dirty_since_mark_.clear();
  return out;
}

netmark::Status Pager::Flush() {
  // Attempt every dirty page even after a failure so one bad write doesn't
  // strand the rest; the failing page stays dirty (it will be retried by the
  // next Flush) and the first error is propagated.
  netmark::Status first_error = netmark::Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, entry] : entries_) {
    // Only published bytes reach the file; an unpublished working copy is
    // an uncommitted transaction and must never be flushed.
    if (!entry.disk_dirty || entry.versions.empty()) continue;
    const uint8_t* buf = entry.versions.back().second.get();
    netmark::Status st =
        file_->Write(static_cast<uint64_t>(id) * kPageSize, buf, kPageSize);
    if (!st.ok()) {
      if (first_error.ok()) {
        first_error = st.WithContext(netmark::StringPrintf("write of page %u", id));
      }
      continue;  // page stays dirty
    }
    entry.disk_dirty = false;
    pages_written_.fetch_add(1, std::memory_order_relaxed);
  }
  return first_error;
}

netmark::Status Pager::SyncToDisk() { return file_->Sync(); }

netmark::Result<bool> Pager::VerifyOnDisk(PageId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (quarantined_.count(id) != 0) return true;  // already known bad
  PageId count = page_count_.load(std::memory_order_relaxed);
  if (id >= count) {
    return netmark::Status::InvalidArgument(
        netmark::StringPrintf("page %u out of range (%u pages)", id, count));
  }
  // A dirty page's on-disk copy is legitimately stale; so is a page that
  // was allocated but not yet published (nothing on disk at all). The lock
  // keeps Flush/Publish from racing this check.
  auto it = entries_.find(id);
  Entry* entry = it != entries_.end() ? &it->second : nullptr;
  if (entry != nullptr &&
      (entry->disk_dirty ||
       (entry->versions.empty() && entry->working != nullptr))) {
    return true;
  }
  uint8_t buf[kPageSize];
  NETMARK_RETURN_NOT_OK(
      file_->Read(static_cast<uint64_t>(id) * kPageSize, kPageSize, buf));
  if (!PageVerifyChecksum(buf)) {
    if (entry != nullptr && !entry->versions.empty()) {
      // The in-memory copy is authoritative and intact; the disk copy
      // rotted underneath it. Re-dirty the page so the next flush heals the
      // disk instead of quarantining data we still hold.
      entry->disk_dirty = true;
      dirty_since_mark_.insert(id);
      return false;
    }
    quarantined_.insert(id);
    return false;
  }
  return true;
}

bool Pager::IsQuarantined(PageId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_.count(id) != 0;
}

std::vector<PageId> Pager::QuarantinedPages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<PageId>(quarantined_.begin(), quarantined_.end());
}

uint64_t Pager::quarantined_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return quarantined_.size();
}

}  // namespace netmark::storage
