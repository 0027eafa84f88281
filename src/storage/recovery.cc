#include "storage/recovery.h"

#include <filesystem>
#include <map>
#include <memory>
#include <set>

#include "common/clock.h"
#include "storage/crash_point.h"
#include "storage/page.h"
#include "storage/wal.h"

namespace netmark::storage {

namespace fs = std::filesystem;

namespace {

class FileCache {
 public:
  explicit FileCache(netmark::Env* env) : env_(env) {}
  netmark::Result<netmark::File*> Get(const std::string& dir,
                                      const std::string& table) {
    auto it = files_.find(table);
    if (it != files_.end()) return it->second.get();
    // Must match Database::TableFilePath.
    std::string path = (fs::path(dir) / (table + ".heap")).string();
    auto opened = env_->OpenFile(path, /*create=*/true);
    if (!opened.ok()) return opened.status().WithContext("recovery open");
    netmark::File* raw = opened->get();
    files_[table] = std::move(*opened);
    return raw;
  }
  netmark::Status SyncAll() {
    for (auto& [name, file] : files_) {
      NETMARK_RETURN_NOT_OK(file->Sync().WithContext("recovery fsync"));
    }
    return netmark::Status::OK();
  }

 private:
  netmark::Env* env_;
  std::map<std::string, std::unique_ptr<netmark::File>> files_;
};

}  // namespace

netmark::Result<RecoveryStats> RecoverDatabase(const std::string& dir,
                                               const std::string& wal_path,
                                               netmark::Env* env) {
  if (env == nullptr) env = netmark::Env::Default();
  RecoveryStats stats;
  int64_t start = netmark::MonotonicMicros();
  NETMARK_ASSIGN_OR_RETURN(WalScan scan, Wal::ReadRecords(wal_path, env));
  stats.records_scanned = scan.records.size();
  stats.torn_tail = scan.torn_tail;
  if (scan.records.empty() && !scan.torn_tail) {
    stats.micros = netmark::MonotonicMicros() - start;
    return stats;  // empty or absent log: nothing to do
  }
  stats.performed = true;

  // Pass 1: which transactions committed?
  std::set<uint64_t> committed;
  std::set<uint64_t> seen;
  for (const WalRecord& rec : scan.records) {
    seen.insert(rec.txn_id);
    if (rec.type == WalRecordType::kCommit) committed.insert(rec.txn_id);
  }
  stats.committed_txns = committed.size();
  stats.uncommitted_txns = seen.size() - committed.size();

  // Pass 2: redo committed page images in LSN order. Full-page physical
  // redo is idempotent, so a crash during this loop just means the next
  // open replays again.
  FileCache files(env);
  for (const WalRecord& rec : scan.records) {
    if (rec.type != WalRecordType::kPageImage) continue;
    if (committed.count(rec.txn_id) == 0) continue;
    NETMARK_ASSIGN_OR_RETURN(netmark::File * file, files.Get(dir, rec.table));
    NETMARK_RETURN_NOT_OK(
        file->Write(static_cast<uint64_t>(rec.page_id) * kPageSize,
                    rec.image.data(), rec.image.size())
            .WithContext("recovery page write"));
    ++stats.pages_applied;
    stats.last_lsn = rec.lsn;
    MaybeCrashPoint("recovery_page_applied");
  }
  NETMARK_RETURN_NOT_OK(files.SyncAll());
  MaybeCrashPoint("recovery_before_truncate");

  // Heap files are durable; retire the log.
  if (env->FileExists(wal_path)) {
    NETMARK_ASSIGN_OR_RETURN(std::unique_ptr<netmark::File> wal_file,
                             env->OpenFile(wal_path, /*create=*/false));
    NETMARK_RETURN_NOT_OK(
        wal_file->Truncate(0).WithContext("recovery wal truncate"));
    NETMARK_RETURN_NOT_OK(wal_file->Sync().WithContext("recovery wal truncate"));
  }
  stats.micros = netmark::MonotonicMicros() - start;
  return stats;
}

}  // namespace netmark::storage
