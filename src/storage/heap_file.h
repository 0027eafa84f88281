// Heap file: unordered record storage with stable RowIds.
//
// Records live in slotted pages. Three complications are handled so that a
// RowId handed out at insert time stays valid for the record's lifetime:
//
//  * updates that no longer fit in place leave a *forward pointer* at the
//    original slot and relocate the bytes (Read/Update/Delete chase
//    pointers; chains are collapsed on re-update);
//  * records larger than a page spill to chained *overflow pages*;
//  * deleted slots tombstone rather than compact, so neighbours keep their
//    addresses.
//
// Space freed by deletes/relocations is not reused — NETMARK's workload is
// append-mostly bulk ingest, matching the paper's usage. No-reuse is also
// what makes MVCC reads simple here: bytes reachable from a page version at
// epoch E are never overwritten by later commits, so reading every page at
// `epoch` yields a consistent record (docs/mvcc.md).
//
// Read methods take an Epoch: kLatestEpoch (default) serves the newest
// published state, a pinned epoch serves that snapshot, and mutators pass
// kWriterEpoch internally so a transaction sees its own uncommitted writes.
//
// Read() is the record read everything else builds on: one page fetch per
// hop (an inline record that was never relocated costs exactly one fetch),
// and the bytes are served in place from the fetched page version, which the
// returned RecordRef keeps pinned. Get() is a copying convenience over it.

#ifndef NETMARK_STORAGE_HEAP_FILE_H_
#define NETMARK_STORAGE_HEAP_FILE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/result.h"
#include "storage/page.h"
#include "storage/pager.h"
#include "storage/row_id.h"

namespace netmark::storage {

/// \brief One record as HeapFile::Read found it. An inline record is a view
/// into its page version, which the reference keeps alive; an overflow
/// record is assembled into owned bytes. bytes() stays valid across moves of
/// the reference (the owned bytes live on the heap, never in an SSO buffer).
class RecordRef {
 public:
  RecordRef() = default;
  std::string_view bytes() const { return bytes_; }

 private:
  friend class HeapFile;
  PageRef page_;
  std::unique_ptr<std::string> owned_;
  std::string_view bytes_;
};

/// \brief Record store over a Pager.
class HeapFile {
 public:
  /// Wraps an open pager; recovers the append position by scanning page
  /// headers (overflow pages are marked and skipped).
  static netmark::Result<HeapFile> Open(Pager* pager);

  HeapFile(HeapFile&& other) noexcept
      : pager_(other.pager_),
        tail_(other.tail_),
        live_records_(other.live_records_.load(std::memory_order_relaxed)) {}
  HeapFile& operator=(HeapFile&& other) noexcept {
    pager_ = other.pager_;
    tail_ = other.tail_;
    live_records_.store(other.live_records_.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
    return *this;
  }

  /// Stores a record, returning its permanent RowId.
  netmark::Result<RowId> Insert(std::string_view record);

  /// Reads a record as of `epoch`, chasing forward pointers with one page
  /// fetch per hop and assembling overflow chains. NotFound covers both "no
  /// record" and "page born after epoch".
  netmark::Result<RecordRef> Read(RowId id, Epoch epoch = kLatestEpoch) const;

  /// Read() copied into a string.
  netmark::Result<std::string> Get(RowId id, Epoch epoch = kLatestEpoch) const;

  /// Replaces a record's bytes; the RowId remains valid.
  netmark::Status Update(RowId id, std::string_view record);

  /// Removes a record.
  netmark::Status Delete(RowId id);

  /// True if `id` addresses a live record as of `epoch`.
  bool Exists(RowId id, Epoch epoch = kLatestEpoch) const;

  /// Visits every record live as of `epoch` in physical order with its
  /// canonical RowId. Pages born after `epoch` are skipped (they hold only
  /// records the snapshot cannot see). Stops early if `fn` returns a non-OK
  /// status (propagated).
  netmark::Status Scan(
      const std::function<netmark::Status(RowId, std::string_view)>& fn,
      Epoch epoch = kLatestEpoch) const;

  /// Number of live records (maintained incrementally; recomputed at Open).
  /// Counts the writer's view — unpublished inserts included.
  uint64_t live_records() const {
    return live_records_.load(std::memory_order_relaxed);
  }

 private:
  explicit HeapFile(Pager* pager) : pager_(pager) {}

  // Record tag flags (first byte of every slot payload).
  static constexpr uint8_t kForwardFlag = 0x1;    // payload = packed RowId (8B)
  static constexpr uint8_t kRelocatedFlag = 0x2;  // reached only via forward
  static constexpr uint8_t kOverflowFlag = 0x4;   // payload = page id + length

  netmark::Result<RowId> InsertTagged(std::string_view record, uint8_t extra_flags);
  netmark::Result<RowId> AppendSlot(std::string_view payload);
  netmark::Result<std::string> ReadOverflow(std::string_view payload,
                                            Epoch epoch) const;
  netmark::Result<std::string> WriteOverflowPayload(std::string_view record);
  /// Follows forward pointers from `id` to the slot holding the data.
  netmark::Result<RowId> Resolve(RowId id, Epoch epoch) const;

  Pager* pager_;
  PageId tail_ = kInvalidPage;  // current append page
  /// Atomic so metrics/healthz threads may read while the writer inserts.
  std::atomic<uint64_t> live_records_{0};
};

}  // namespace netmark::storage

#endif  // NETMARK_STORAGE_HEAP_FILE_H_
