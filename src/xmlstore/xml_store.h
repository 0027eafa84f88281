// The NETMARK XML Store.
//
// Any XML/HTML document — regardless of schema — is decomposed into node
// rows stored in the same two tables (XML + DOC; paper Fig 5). The store is
// "schema-less": zero DDL happens per new document type. Parent and sibling
// links hold *physical RowIds*, reproducing the paper's Oracle-rowid fast
// traversal.

#ifndef NETMARK_XMLSTORE_XML_STORE_H_
#define NETMARK_XMLSTORE_XML_STORE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/result.h"
#include "observability/metrics.h"
#include "storage/database.h"
#include "textindex/inverted_index.h"
#include "textindex/text_query.h"
#include "xml/dom.h"
#include "xml/node_type_config.h"
#include "xmlstore/node_record.h"
#include "xmlstore/prepared_document.h"

namespace netmark::xmlstore {

/// \brief Schema-less document store over the relational engine.
///
/// MVCC serving (docs/mvcc.md): the storage layer runs in multi-version
/// mode — every commit publishes an immutable, epoch-tagged version set of
/// its pages. Mutators (InsertDocument / InsertPrepared / DeleteDocument /
/// Checkpoint) serialize on a plain writer mutex; readers never
/// touch it. BeginRead() pins the current commit epoch in a wait-free slot
/// table and every read issued while the snapshot is held resolves pages,
/// index candidates, and text hits as of that epoch — queries never observe
/// a half-committed document, never block a writer, and never wait for one.
/// A background GC reclaims page versions once no snapshot pins them.
///
/// Each document mutation is one write-ahead-log transaction: its XML + DOC
/// rows (and therefore the text-index postings, which are rebuilt from those
/// rows after a crash) land atomically or not at all.
class XmlStore {
 public:
  /// \brief RAII token pinning a consistent read view of the store.
  ///
  /// BeginRead() pins the current commit epoch in a wait-free slot table —
  /// no lock is taken, so held snapshots never block mutations, checkpoints,
  /// or each other; version GC simply retains every page version the pinned
  /// epoch can see. Re-entrant: a nested BeginRead() on the same thread
  /// shares the outer pin (same epoch), so helpers may defensively take
  /// their own snapshot. Thread-affine: release (destroy) the snapshot on
  /// the thread that created it. Movable, not copyable.
  class ReadSnapshot {
   public:
    ReadSnapshot() = default;
    ReadSnapshot(ReadSnapshot&& other) noexcept
        : store_(std::exchange(other.store_, nullptr)), epoch_(other.epoch_) {}
    ReadSnapshot& operator=(ReadSnapshot&& other) noexcept {
      if (this != &other) {
        Release();
        store_ = std::exchange(other.store_, nullptr);
        epoch_ = other.epoch_;
      }
      return *this;
    }
    ReadSnapshot(const ReadSnapshot&) = delete;
    ReadSnapshot& operator=(const ReadSnapshot&) = delete;
    ~ReadSnapshot() { Release(); }

    bool valid() const { return store_ != nullptr; }
    /// Commit epoch this snapshot pinned (advances once per committed
    /// mutation; two snapshots with equal epochs observed identical data).
    uint64_t epoch() const { return epoch_; }

   private:
    friend class XmlStore;
    ReadSnapshot(const XmlStore* store, uint64_t epoch)
        : store_(store), epoch_(epoch) {}
    void Release();

    const XmlStore* store_ = nullptr;
    uint64_t epoch_ = 0;
  };

  /// Pins a consistent view for a batch of reads (see ReadSnapshot).
  ReadSnapshot BeginRead() const;

  /// Commit epoch: bumped once per committed mutation (storage epoch 0 is
  /// the state at Open). A reader that sees the same epoch across two
  /// snapshots saw identical store contents.
  uint64_t commit_epoch() const { return db_->commit_epoch(); }

  /// Opens (creating on first use) a store under `dir`. The fixed two-table
  /// schema is created exactly once; reopening rebuilds the text index from
  /// the stored nodes. `storage` selects the durability mode (WAL on by
  /// default; crash recovery runs inside storage::Database::Open).
  static netmark::Result<std::unique_ptr<XmlStore>> Open(
      const std::string& dir, xml::NodeTypeConfig node_types = xml::NodeTypeConfig::Default(),
      const storage::StorageOptions& storage = {});

  // --- Document lifecycle ---

  /// Decomposes `doc` into node rows and indexes its text. Returns the new
  /// document id. Equivalent to InsertPrepared(PrepareDocument(...)).
  netmark::Result<int64_t> InsertDocument(const xml::Document& doc,
                                          const DocumentInfo& info);

  /// Commits a worker-prepared document: assigns doc/node ids, writes rows,
  /// patches sibling RowId links, and bulk-merges the pre-tokenized postings
  /// into the text index. This is the single-writer half of the parallel
  /// ingestion pipeline; like every mutator it must be called from one
  /// thread at a time.
  netmark::Result<int64_t> InsertPrepared(const PreparedDocument& prepared);

  /// Removes a document's rows and index entries.
  netmark::Status DeleteDocument(int64_t doc_id);

  netmark::Result<DocRecord> GetDocumentInfo(int64_t doc_id) const;
  netmark::Result<std::vector<DocRecord>> ListDocuments() const;
  uint64_t document_count() const;
  uint64_t node_count() const;

  /// Rebuilds the full DOM of a stored document (round-trip fidelity is
  /// property-tested: store → reconstruct → structural equality).
  netmark::Result<xml::Document> Reconstruct(int64_t doc_id) const;

  /// Reconstructs only the subtree rooted at `node` (used to render one
  /// section of a document).
  netmark::Result<xml::Document> ReconstructSubtree(storage::RowId node) const;
  /// Same, from a root row the caller has already read, appended as the
  /// last child of `parent` in `*out`: a section's whole content run
  /// reconstructs into one document.
  netmark::Status ReconstructSubtree(const NodeView& root, xml::Document* out,
                                     xml::NodeId parent) const;

  // --- Node access ---
  //
  // Every read method resolves its storage epoch from the calling thread's
  // innermost live ReadSnapshot on this store (writer-latest when none is
  // held), so signatures stay epoch-free.

  /// Reads one node row by physical address — the O(1) hop everything else
  /// builds on: one page fetch, decoded in place (NodeView).
  netmark::Result<NodeView> ReadNode(storage::RowId id) const;

  /// RowIds of `node`'s children, in document order (index join on
  /// PARENTNODEID; the rowid links only cover parent/sibling hops, as in the
  /// paper).
  netmark::Result<std::vector<storage::RowId>> Children(storage::RowId node) const;

  /// RowIds of all nodes whose PARENTNODEID equals `parent_node_id`
  /// (unordered; logical-id join used by the rowid-ablation walk).
  netmark::Result<std::vector<storage::RowId>> NodesWithParent(
      int64_t parent_node_id) const;

  /// RowId of the node with the given logical (doc, node) ids.
  netmark::Result<storage::RowId> NodeByDocAndId(int64_t doc_id,
                                                 int64_t node_id) const;

  /// Concatenated text of the subtree rooted at `node`.
  netmark::Result<std::string> SubtreeText(storage::RowId node) const;
  /// The same, from a root row the caller has already read.
  netmark::Result<std::string> SubtreeText(const NodeView& root) const;

  /// All node rows of a document in pre-order (NODEID order).
  netmark::Result<std::vector<std::pair<storage::RowId, NodeRecord>>> DocumentNodes(
      int64_t doc_id) const;

  // --- Text index ---

  /// The positional inverted index over TEXT-node contents. Writer-latest
  /// (not versioned): snapshot readers must re-verify every hit against the
  /// store at their epoch (the query executor does).
  const textindex::InvertedIndex& text_index() const { return text_index_; }

  /// All TEXT-node RowIds whose content contains `term` (writer-latest; see
  /// text_index()).
  std::vector<storage::RowId> TextLookup(std::string_view term) const;

  /// Full-scan evaluation of a text query: the index ablation (Ablation B)
  /// the executor runs when `use_text_index` is off.
  netmark::Result<std::vector<storage::RowId>> TextScanMatch(
      const textindex::TextQuery& query) const;

  const xml::NodeTypeConfig& node_types() const { return node_types_; }
  storage::Database* database() { return db_.get(); }
  const storage::Database* database() const { return db_.get(); }

  /// Checkpoint (heap fsync + log truncation) plus wal/checkpoint metric
  /// accounting. Triggered automatically when the log passes
  /// `checkpoint_bytes` and by the daemon's idle sweep; the database also
  /// checkpoints when it closes.
  netmark::Status Checkpoint();

  // --- MVCC version GC (docs/mvcc.md) -------------------------------------

  /// One synchronous version-GC pass: drops page versions and applies
  /// sealed index/posting removals that no live snapshot can still see.
  /// The background GC thread (`[storage] mvcc_gc_interval_ms`) runs this
  /// on a timer; tests and the CLI may call it directly. Returns the number
  /// of page versions reclaimed.
  uint64_t RunVersionGc();

  /// Oldest epoch any live snapshot pins (the current epoch when none do) —
  /// the GC watermark, exported as netmark_mvcc_oldest_pinned_epoch.
  uint64_t OldestPinnedEpoch() const;

  /// Published page versions currently retained across both tables.
  uint64_t mvcc_versions_retained() const { return db_->retained_versions(); }
  /// Total page versions dropped by GC or the retention cap.
  uint64_t mvcc_versions_reclaimed() const { return db_->versions_reclaimed(); }

  // --- Disk-fault containment (docs/durability.md) ------------------------

  /// True once a failed WAL/heap write forced the store read-only; reads
  /// keep serving the last good state while mutations are rejected.
  bool degraded() const { return db_->degraded(); }
  std::string degraded_reason() const { return db_->degraded_reason(); }
  /// The status mutations are rejected with while degraded (CapacityExceeded
  /// when the cause was a full disk, Unavailable otherwise).
  netmark::Status DegradedError() const { return db_->DegradedError(); }

  /// Result of one scrub pass (also folded into the cumulative
  /// netmark_scrub_* metrics).
  struct ScrubStats {
    uint64_t pages_scanned = 0;
    uint64_t errors_found = 0;
  };
  /// Synchronous CRC sweep over every heap page of both tables (the CLI's
  /// `scrub` verb). The background scrubber does the same work paced by
  /// `[storage] scrub_pages_per_sec`.
  ScrubStats ScrubAll() const;
  uint64_t scrub_pages_scanned() const {
    return scrub_pages_scanned_.load(std::memory_order_relaxed);
  }
  uint64_t scrub_errors_found() const {
    return scrub_errors_.load(std::memory_order_relaxed);
  }
  uint64_t scrub_passes() const {
    return scrub_passes_.load(std::memory_order_relaxed);
  }

  /// Heap pages currently quarantined (CRC mismatch) across both tables.
  uint64_t quarantined_pages() const;
  /// Documents observed (lazily, at read time) to have at least one node on
  /// a quarantined page. Queries skip them and mark results partial.
  uint64_t quarantined_doc_count() const;
  std::vector<int64_t> QuarantinedDocs() const;
  /// Records that `doc_id` hit a quarantined page (called from the read
  /// path, hence const; quarantine bookkeeping is logically mutable).
  void NoteQuarantinedDoc(int64_t doc_id) const;

  /// Re-homes the store's durability metrics (netmark_wal_* /
  /// netmark_checkpoint_* / recovery / mvcc gauges) onto `registry`.
  void BindMetrics(observability::MetricsRegistry* registry);
  observability::MetricsRegistry* metrics() const { return metrics_; }

  /// Stops the background GC and scrubber threads (if running) before
  /// tearing down the database.
  ~XmlStore();

 private:
  /// Reader pin slots: lock-free fast path for up to kPinSlots concurrent
  /// snapshots; the rest spill into a mutex-guarded multiset.
  static constexpr size_t kPinSlots = 256;
  /// ReadSnapshot pin bookkeeping: epoch was pinned in the overflow
  /// multiset rather than a slot.
  static constexpr int kOverflowSlot = -1;

  /// RAII: registers the calling thread as the writer for the scope, so
  /// internal reads (DocumentNodes during a delete, the purge after a
  /// failed commit) resolve to storage::kWriterEpoch and see the open
  /// transaction's uncommitted writes.
  class WriterView {
   public:
    explicit WriterView(const XmlStore* store);
    ~WriterView();
    WriterView(const WriterView&) = delete;
    WriterView& operator=(const WriterView&) = delete;

   private:
    const XmlStore* store_;
  };

  /// One deferred text-index posting removal: queued at delete time, sealed
  /// with the commit epoch, applied once the GC watermark passes it — so
  /// snapshot readers keep resolving old text hits until no one needs them.
  struct PendingTextRemoval {
    textindex::DocKey key;
    std::string text;
    storage::Epoch sealed_epoch = 0;
    bool sealed = false;
  };

  XmlStore(std::unique_ptr<storage::Database> db, xml::NodeTypeConfig node_types)
      : db_(std::move(db)), node_types_(std::move(node_types)) {
    for (auto& slot : pin_slots_) slot.store(0, std::memory_order_relaxed);
  }

  /// The children of node `parent_node_id` in document order, each with the
  /// row the ordering read, so the subtree walks fetch every row once.
  netmark::Result<std::vector<std::pair<storage::RowId, NodeRecord>>>
  OrderedChildren(int64_t parent_node_id) const;

  netmark::Status EnsureTables();
  netmark::Status RebuildTextIndex();
  /// Insert body (write_mu_ held, transaction open).
  netmark::Result<int64_t> InsertPreparedLocked(const PreparedDocument& prepared);
  /// Delete body (write_mu_ held, transaction open).
  netmark::Status DeleteDocumentLocked(int64_t doc_id);
  /// Commit + publish + metric deltas + size-triggered checkpoint
  /// (write_mu_ held).
  netmark::Status CommitTransactionLocked();
  netmark::Status CheckpointLocked();
  void BindHandles();
  void PublishWalCounters();

  // --- Snapshot pin plumbing (bodies in xml_store.cc, where the
  // thread-local pin registry lives) --------------------------------------

  /// Storage epoch reads on this thread should use: the innermost live
  /// ReadSnapshot's pin on this store, kWriterEpoch inside a WriterView
  /// scope, else kLatestEpoch.
  storage::Epoch ResolveReadEpoch() const;
  /// Pins the current commit epoch (claim-recheck protocol; see
  /// docs/mvcc.md). Returns the epoch; *slot_out gets the slot index or
  /// kOverflowSlot.
  uint64_t PinEpoch(int* slot_out) const;
  void UnpinEpoch(int slot, uint64_t epoch) const;
  /// Releases the calling thread's innermost pin on this store (possibly
  /// just a nesting decrement).
  void EndRead() const;
  /// Every currently pinned epoch (unsorted, may repeat).
  std::vector<storage::Epoch> CollectPins() const;

  /// Background GC body: RunVersionGc() every `interval_ms`.
  void GcLoop(int interval_ms);
  void DeferTextRemoval(textindex::DocKey key, std::string text);
  void SealPendingTextRemovals(storage::Epoch epoch);
  uint64_t ApplyPendingTextRemovals(storage::Epoch watermark);

  /// Background scrubber body: verifies ~pages_per_sec pages per second in
  /// 100ms batches, round-robin across both tables, under write_mu_ so it
  /// never races a flush.
  void ScrubberLoop(int pages_per_sec);
  /// Verifies up to `budget` pages starting at the (table, page) cursor;
  /// advances the cursor and the scrub counters.
  void ScrubBatch(int budget, size_t* table_idx, storage::PageId* next_page) const;

  storage::Table* xml_table() const { return xml_table_; }
  storage::Table* doc_table() const { return doc_table_; }

  /// Writer lock: mutators, checkpoints, and the scrubber's disk probes
  /// serialize on it. Readers never take it — they pin epochs instead
  /// (the commit lock this replaces is gone; docs/mvcc.md).
  mutable std::mutex write_mu_;

  /// Wait-free reader pin table: 0 = free, else pinned epoch + 1.
  mutable std::array<std::atomic<uint64_t>, kPinSlots> pin_slots_;
  /// Spill for more than kPinSlots concurrent snapshots (rare).
  mutable std::mutex pin_overflow_mu_;
  mutable std::multiset<uint64_t> pin_overflow_;

  /// MonotonicMicros of the last commit (or Open) — the snapshot-age gauge.
  std::atomic<int64_t> last_commit_micros_{0};
  /// Live ReadSnapshot count (netmark_snapshot_active_readers gauge).
  mutable std::atomic<int64_t> active_readers_{0};

  std::unique_ptr<storage::Database> db_;
  xml::NodeTypeConfig node_types_;
  storage::Table* xml_table_ = nullptr;
  storage::Table* doc_table_ = nullptr;
  textindex::InvertedIndex text_index_;
  int64_t next_doc_id_ = 1;
  int64_t next_node_id_ = 1;

  /// Deferred text-index removals (writer queues/seals, GC applies).
  std::mutex pending_text_mu_;
  std::vector<PendingTextRemoval> pending_text_removals_;

  /// Background version GC (interval from `[storage] mvcc_gc_interval_ms`).
  std::thread gc_thread_;
  std::atomic<bool> gc_stop_{false};
  std::mutex gc_mu_;
  std::condition_variable gc_cv_;

  /// Private fallback registry so a standalone store works unwired; the
  /// facade rebinds onto its own registry via BindMetrics().
  std::unique_ptr<observability::MetricsRegistry> owned_metrics_;
  observability::MetricsRegistry* metrics_ = nullptr;
  struct MetricHandles {
    observability::Counter* wal_bytes = nullptr;
    observability::Counter* wal_records = nullptr;
    observability::Counter* wal_fsyncs = nullptr;
    observability::Counter* wal_commits = nullptr;
    observability::Counter* checkpoints = nullptr;
    observability::Histogram* commit_micros = nullptr;
    observability::Histogram* checkpoint_micros = nullptr;
  } handles_;
  // Last-published cumulative wal counter values (write_mu_ held when
  // updated): the registry counters advance by deltas.
  struct WalSeen {
    uint64_t bytes = 0, records = 0, fsyncs = 0, commits = 0;
  } wal_seen_;

  // --- Scrubber + quarantine bookkeeping ---------------------------------
  // Cumulative scrub totals are atomics (not registry counters) because the
  // scrubber thread may race a BindMetrics() re-home; the registry reads
  // them through callback gauges instead.
  mutable std::atomic<uint64_t> scrub_pages_scanned_{0};
  mutable std::atomic<uint64_t> scrub_errors_{0};
  mutable std::atomic<uint64_t> scrub_passes_{0};
  std::thread scrub_thread_;
  std::atomic<bool> scrub_stop_{false};
  std::mutex scrub_mu_;
  std::condition_variable scrub_cv_;
  /// Doc ids seen (at read time) to touch a quarantined page.
  mutable std::mutex quarantine_mu_;
  mutable std::set<int64_t> quarantined_docs_;
};

/// Encodes element attributes into the NODEDATA blob ("k=v&k2=v2",
/// URL-escaped) and back.
std::string EncodeAttributes(const std::vector<xml::Attribute>& attrs);
netmark::Result<std::vector<xml::Attribute>> DecodeAttributes(std::string_view blob);

}  // namespace netmark::xmlstore

#endif  // NETMARK_XMLSTORE_XML_STORE_H_
