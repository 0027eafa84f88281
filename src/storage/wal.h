// Physical write-ahead log (ARIES-lite, redo-only).
//
// Durability contract (docs/durability.md): a transaction's page images are
// staged in memory and hit the log in ONE append at commit — followed by an
// fsync before the commit returns. Pages reach the heap files only at
// checkpoint, strictly after their images are on the log, so any crash
// leaves either (a) a committed transaction fully reconstructible from the
// log, or (b) an uncommitted transaction with zero bytes on disk. Recovery
// (storage/recovery.h) replays committed page images in LSN order and
// truncates the log; a CRC-invalid or short tail record marks the torn end
// and is dropped, never replayed.
//
// On-disk record framing (little-endian, native — the log never moves
// between hosts):
//
//   u32 body_len | u32 crc32c(body) | body
//   body = u64 lsn | u64 txn_id | u8 type | payload
//   payload(kPageImage) = u16 table_len | table | u32 page_id | 8 KiB image
//   payload(kCommit)    = (empty)

#ifndef NETMARK_STORAGE_WAL_H_
#define NETMARK_STORAGE_WAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/result.h"
#include "storage/page.h"
#include "storage/row_id.h"

namespace netmark::storage {

enum class WalRecordType : uint8_t {
  kPageImage = 1,
  kCommit = 2,
};

/// One decoded log record (reader side).
struct WalRecord {
  uint64_t lsn = 0;
  uint64_t txn_id = 0;
  WalRecordType type = WalRecordType::kCommit;
  // kPageImage only:
  std::string table;
  PageId page_id = 0;
  std::string image;  // kPageSize bytes
};

/// Result of scanning a log file.
struct WalScan {
  std::vector<WalRecord> records;
  uint64_t valid_bytes = 0;  ///< offset of the first invalid byte (tail cut)
  bool torn_tail = false;    ///< file had bytes past valid_bytes
  std::string torn_reason;
};

/// \brief Append-side write-ahead log.
///
/// Not thread-safe: callers serialize (the XML store's write mutex).
/// Cumulative counters are atomics so metrics collection may read them from
/// other threads.
class Wal {
 public:
  /// Opens (creating if absent) the log at `path`, scanning existing records
  /// to position the append offset after the last valid record (a torn tail
  /// is truncated away here). `env` defaults to Env::Default().
  static netmark::Result<std::unique_ptr<Wal>> Open(const std::string& path,
                                                    netmark::Env* env = nullptr);
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Scans a log file without opening it for append (recovery, tests). A
  /// missing file is an empty scan. `env` defaults to Env::Default().
  static netmark::Result<WalScan> ReadRecords(const std::string& path,
                                              netmark::Env* env = nullptr);

  /// Stages one page image for the open transaction (memory only — nothing
  /// reaches the file until AppendCommit).
  void StagePageImage(uint64_t txn_id, std::string_view table, PageId page_id,
                      const uint8_t* image);

  /// Appends the staged images plus a commit record in a single write, then
  /// fsyncs.
  netmark::Status AppendCommit(uint64_t txn_id);

  /// Drops staged, uncommitted images (transaction abandon).
  void DiscardStaged();

  /// Truncates the log to zero length after a checkpoint made the heap files
  /// durable. LSNs keep counting up across truncation.
  netmark::Status TruncateAll();

  const std::string& path() const { return path_; }

  /// Current log file size (appended bytes since last truncation).
  uint64_t size_bytes() const { return size_bytes_.load(std::memory_order_relaxed); }
  /// LSN of the most recently appended record (0 = none ever).
  uint64_t last_lsn() const { return last_lsn_.load(std::memory_order_relaxed); }

  // Cumulative counters (monotonic since open; metrics reads these).
  uint64_t bytes_appended() const { return bytes_appended_.load(std::memory_order_relaxed); }
  uint64_t records_appended() const { return records_appended_.load(std::memory_order_relaxed); }
  uint64_t commits() const { return commits_.load(std::memory_order_relaxed); }
  uint64_t fsyncs() const { return fsyncs_.load(std::memory_order_relaxed); }
  uint64_t truncations() const { return truncations_.load(std::memory_order_relaxed); }

 private:
  Wal(std::string path, std::unique_ptr<netmark::File> file)
      : path_(std::move(path)), file_(std::move(file)) {}

  void EncodeRecord(uint64_t txn_id, WalRecordType type, std::string_view payload,
                    std::string* out);

  std::string path_;
  std::unique_ptr<netmark::File> file_;
  uint64_t append_offset_ = 0;
  std::string staged_;        // encoded records awaiting the commit append
  uint64_t staged_records_ = 0;
  uint64_t next_lsn_ = 1;

  std::atomic<uint64_t> size_bytes_{0};
  std::atomic<uint64_t> last_lsn_{0};
  std::atomic<uint64_t> bytes_appended_{0};
  std::atomic<uint64_t> records_appended_{0};
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> truncations_{0};
};

}  // namespace netmark::storage

#endif  // NETMARK_STORAGE_WAL_H_
