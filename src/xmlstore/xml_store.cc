#include "xmlstore/xml_store.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <iterator>
#include <map>
#include <thread>

#include "common/clock.h"
#include "common/string_util.h"

namespace netmark::xmlstore {

using storage::IndexKey;
using storage::Row;
using storage::RowId;
using storage::Value;

namespace {

/// One live pin held by this thread: either a ReadSnapshot's epoch pin or a
/// WriterView's kWriterEpoch marker. The registry is thread-local, so
/// resolving the calling thread's read epoch costs a short vector scan — no
/// shared state, no atomics, and snapshot nesting is a depth bump.
struct ThreadPin {
  const void* store;
  uint64_t epoch;
  int depth;
  int slot;  // pin_slots_ index, kOverflowSlot, or kWriterSlot
};

thread_local std::vector<ThreadPin> t_pins;

/// Sentinel slot for WriterView entries (no slot-table pin to release: the
/// writer reads its own working copies, which GC never touches).
constexpr int kWriterSlot = -2;

}  // namespace

std::string EncodeAttributes(const std::vector<xml::Attribute>& attrs) {
  std::string out;
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i != 0) out += '&';
    out += netmark::UrlEncode(attrs[i].name);
    out += '=';
    out += netmark::UrlEncode(attrs[i].value);
  }
  return out;
}

netmark::Result<std::vector<xml::Attribute>> DecodeAttributes(std::string_view blob) {
  std::vector<xml::Attribute> out;
  if (blob.empty()) return out;
  for (const std::string& pair : netmark::Split(blob, '&')) {
    size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      return netmark::Status::Corruption("bad attribute blob: " + pair);
    }
    xml::Attribute a;
    NETMARK_ASSIGN_OR_RETURN(a.name, netmark::UrlDecode(pair.substr(0, eq)));
    NETMARK_ASSIGN_OR_RETURN(a.value, netmark::UrlDecode(pair.substr(eq + 1)));
    out.push_back(std::move(a));
  }
  return out;
}

netmark::Result<std::unique_ptr<XmlStore>> XmlStore::Open(
    const std::string& dir, xml::NodeTypeConfig node_types,
    const storage::StorageOptions& storage_options) {
  NETMARK_ASSIGN_OR_RETURN(std::unique_ptr<storage::Database> db,
                           storage::Database::Open(dir, storage_options));
  std::unique_ptr<XmlStore> store(new XmlStore(std::move(db), std::move(node_types)));
  store->owned_metrics_ = std::make_unique<observability::MetricsRegistry>();
  store->metrics_ = store->owned_metrics_.get();
  store->BindHandles();
  NETMARK_RETURN_NOT_OK(store->EnsureTables());
  // The tables (plus the log recovery already replayed) are the only durable
  // state: postings and id counters are always rebuilt from them.
  NETMARK_RETURN_NOT_OK(store->RebuildTextIndex());
  store->last_commit_micros_.store(netmark::MonotonicMicros(),
                                   std::memory_order_relaxed);
  if (storage_options.mvcc_gc_interval_ms > 0) {
    store->gc_thread_ = std::thread(&XmlStore::GcLoop, store.get(),
                                    storage_options.mvcc_gc_interval_ms);
  }
  if (storage_options.scrub_pages_per_sec > 0) {
    store->scrub_thread_ = std::thread(&XmlStore::ScrubberLoop, store.get(),
                                       storage_options.scrub_pages_per_sec);
  }
  return store;
}

XmlStore::~XmlStore() {
  if (gc_thread_.joinable()) {
    gc_stop_.store(true, std::memory_order_release);
    gc_cv_.notify_all();
    gc_thread_.join();
  }
  if (scrub_thread_.joinable()) {
    scrub_stop_.store(true, std::memory_order_release);
    scrub_cv_.notify_all();
    scrub_thread_.join();
  }
}

// --- Snapshot pins ----------------------------------------------------------

XmlStore::ReadSnapshot XmlStore::BeginRead() const {
  active_readers_.fetch_add(1, std::memory_order_relaxed);
  // Re-entrant: share the thread's existing pin (reader or writer) so nested
  // snapshots observe the same view and cost one integer bump.
  for (auto it = t_pins.rbegin(); it != t_pins.rend(); ++it) {
    if (it->store == this) {
      ++it->depth;
      return ReadSnapshot(this, it->epoch);
    }
  }
  int slot = 0;
  uint64_t epoch = PinEpoch(&slot);
  t_pins.push_back(ThreadPin{this, epoch, 1, slot});
  return ReadSnapshot(this, epoch);
}

void XmlStore::ReadSnapshot::Release() {
  if (store_ != nullptr) {
    store_->EndRead();
    store_ = nullptr;
  }
}

void XmlStore::EndRead() const {
  active_readers_.fetch_sub(1, std::memory_order_relaxed);
  for (auto it = t_pins.rbegin(); it != t_pins.rend(); ++it) {
    if (it->store != this) continue;
    if (--it->depth == 0 && it->slot != kWriterSlot) {
      UnpinEpoch(it->slot, it->epoch);
      t_pins.erase(std::next(it).base());
    }
    return;
  }
}

uint64_t XmlStore::PinEpoch(int* slot_out) const {
  // Claim-recheck protocol (docs/mvcc.md): publish the pin first, then
  // verify the epoch did not advance past it. Everything is seq_cst, so if
  // the recheck passes, any GC pass that could drop this epoch's versions
  // either sees the pin in its scan or loaded its cap at/after our epoch —
  // both keep the versions alive.
  const size_t start =
      std::hash<std::thread::id>()(std::this_thread::get_id()) % kPinSlots;
  for (;;) {
    const uint64_t epoch = db_->commit_epoch();
    bool raced = false;
    for (size_t i = 0; i < kPinSlots; ++i) {
      const size_t s = (start + i) % kPinSlots;
      uint64_t expected = 0;
      if (!pin_slots_[s].compare_exchange_strong(expected, epoch + 1,
                                                 std::memory_order_seq_cst)) {
        continue;  // slot occupied
      }
      if (db_->commit_epoch() == epoch) {
        *slot_out = static_cast<int>(s);
        return epoch;
      }
      // A commit landed between the load and the claim: the pin might be
      // too late for the GC's cap argument. Undo and retry at the new epoch.
      pin_slots_[s].store(0, std::memory_order_seq_cst);
      raced = true;
      break;
    }
    if (raced) continue;
    // Every slot is taken (>= kPinSlots concurrent snapshots): spill into
    // the mutex-guarded overflow set, same claim-recheck.
    std::lock_guard<std::mutex> lock(pin_overflow_mu_);
    auto it = pin_overflow_.insert(epoch);
    if (db_->commit_epoch() == epoch) {
      *slot_out = kOverflowSlot;
      return epoch;
    }
    pin_overflow_.erase(it);
  }
}

void XmlStore::UnpinEpoch(int slot, uint64_t epoch) const {
  if (slot == kOverflowSlot) {
    std::lock_guard<std::mutex> lock(pin_overflow_mu_);
    auto it = pin_overflow_.find(epoch);
    if (it != pin_overflow_.end()) pin_overflow_.erase(it);
    return;
  }
  pin_slots_[static_cast<size_t>(slot)].store(0, std::memory_order_seq_cst);
}

std::vector<storage::Epoch> XmlStore::CollectPins() const {
  std::vector<storage::Epoch> pins;
  for (const auto& slot : pin_slots_) {
    uint64_t v = slot.load(std::memory_order_seq_cst);
    if (v != 0) pins.push_back(v - 1);
  }
  std::lock_guard<std::mutex> lock(pin_overflow_mu_);
  pins.insert(pins.end(), pin_overflow_.begin(), pin_overflow_.end());
  return pins;
}

uint64_t XmlStore::OldestPinnedEpoch() const {
  uint64_t oldest = db_->commit_epoch();
  for (const auto& slot : pin_slots_) {
    uint64_t v = slot.load(std::memory_order_seq_cst);
    if (v != 0) oldest = std::min(oldest, v - 1);
  }
  std::lock_guard<std::mutex> lock(pin_overflow_mu_);
  if (!pin_overflow_.empty()) oldest = std::min(oldest, *pin_overflow_.begin());
  return oldest;
}

storage::Epoch XmlStore::ResolveReadEpoch() const {
  for (auto it = t_pins.rbegin(); it != t_pins.rend(); ++it) {
    if (it->store == this) return it->epoch;
  }
  return storage::kLatestEpoch;
}

XmlStore::WriterView::WriterView(const XmlStore* store) : store_(store) {
  t_pins.push_back(
      ThreadPin{store, storage::kWriterEpoch, 1, kWriterSlot});
}

XmlStore::WriterView::~WriterView() {
  for (auto it = t_pins.rbegin(); it != t_pins.rend(); ++it) {
    if (it->store == store_ && it->slot == kWriterSlot) {
      t_pins.erase(std::next(it).base());
      return;
    }
  }
}

// --- Version GC -------------------------------------------------------------

uint64_t XmlStore::RunVersionGc() {
  // Load the cap BEFORE scanning pins: a reader whose pin races the scan is
  // then provably safe — its claim-recheck guarantees its epoch >= cap, and
  // the pager never drops a version whose successor postdates the cap.
  const storage::Epoch cap = db_->commit_epoch();
  std::vector<storage::Epoch> pins = CollectPins();
  pins.push_back(cap);
  std::sort(pins.begin(), pins.end());
  uint64_t reclaimed = db_->ReclaimVersions(pins, cap);
  ApplyPendingTextRemovals(pins.front());
  return reclaimed;
}

void XmlStore::GcLoop(int interval_ms) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(gc_mu_);
      gc_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms), [this] {
        return gc_stop_.load(std::memory_order_acquire);
      });
    }
    if (gc_stop_.load(std::memory_order_acquire)) return;
    RunVersionGc();
  }
}

void XmlStore::DeferTextRemoval(textindex::DocKey key, std::string text) {
  std::lock_guard<std::mutex> lock(pending_text_mu_);
  pending_text_removals_.push_back(
      PendingTextRemoval{key, std::move(text), 0, false});
}

void XmlStore::SealPendingTextRemovals(storage::Epoch epoch) {
  std::lock_guard<std::mutex> lock(pending_text_mu_);
  for (PendingTextRemoval& p : pending_text_removals_) {
    if (!p.sealed) {
      p.sealed = true;
      p.sealed_epoch = epoch;
    }
  }
}

uint64_t XmlStore::ApplyPendingTextRemovals(storage::Epoch watermark) {
  std::vector<PendingTextRemoval> ready;
  {
    std::lock_guard<std::mutex> lock(pending_text_mu_);
    auto keep = std::partition(
        pending_text_removals_.begin(), pending_text_removals_.end(),
        [&](const PendingTextRemoval& p) {
          return !p.sealed || p.sealed_epoch > watermark;
        });
    ready.assign(std::make_move_iterator(keep),
                 std::make_move_iterator(pending_text_removals_.end()));
    pending_text_removals_.erase(keep, pending_text_removals_.end());
  }
  // Outside pending_text_mu_: Remove takes the index's own lock.
  for (const PendingTextRemoval& p : ready) {
    text_index_.Remove(p.key, p.text);
  }
  return ready.size();
}

// --- Tables -----------------------------------------------------------------

netmark::Status XmlStore::EnsureTables() {
  if (!db_->HasTable("XML")) {
    // The *only* DDL NETMARK ever issues — independent of what documents
    // arrive later (the schema-less claim measured in bench_fig5_storage).
    NETMARK_RETURN_NOT_OK(db_->CreateTable(NodeRecord::Schema()).status());
    NETMARK_RETURN_NOT_OK(db_->CreateTable(DocRecord::Schema()).status());
    NETMARK_RETURN_NOT_OK(db_->CreateIndex("XML", "xml_by_doc", {"DOC_ID", "NODEID"}));
    NETMARK_RETURN_NOT_OK(db_->CreateIndex("XML", "xml_by_parent", {"PARENTNODEID"}));
    NETMARK_RETURN_NOT_OK(db_->CreateIndex("DOC", "doc_by_id", {"DOC_ID"}));
  }
  NETMARK_ASSIGN_OR_RETURN(xml_table_, db_->GetTable("XML"));
  NETMARK_ASSIGN_OR_RETURN(doc_table_, db_->GetTable("DOC"));
  return netmark::Status::OK();
}

netmark::Status XmlStore::RebuildTextIndex() {
  next_node_id_ = 1;
  next_doc_id_ = 1;
  NETMARK_RETURN_NOT_OK(xml_table_->ScanRecords(
      [&](RowId id, std::string_view bytes) -> netmark::Status {
        NETMARK_ASSIGN_OR_RETURN(NodeView rec, NodeView::Decode(bytes));
        next_node_id_ = std::max(next_node_id_, rec.node_id + 1);
        if (rec.is_text()) text_index_.Add(id.Pack(), rec.node_data);
        return netmark::Status::OK();
      }));
  NETMARK_RETURN_NOT_OK(doc_table_->Scan([&](RowId, const Row& row) -> netmark::Status {
    NETMARK_ASSIGN_OR_RETURN(DocRecord rec, DocRecord::FromRow(row));
    next_doc_id_ = std::max(next_doc_id_, rec.doc_id + 1);
    return netmark::Status::OK();
  }));
  return netmark::Status::OK();
}

netmark::Result<int64_t> XmlStore::InsertDocument(const xml::Document& doc,
                                                  const DocumentInfo& info) {
  return InsertPrepared(PrepareDocument(doc, info, node_types_));
}

netmark::Result<int64_t> XmlStore::InsertPrepared(const PreparedDocument& prepared) {
  std::lock_guard<std::mutex> lock(write_mu_);
  WriterView writer(this);
  NETMARK_RETURN_NOT_OK(db_->BeginTransaction());
  netmark::Result<int64_t> doc_id = InsertPreparedLocked(prepared);
  if (!doc_id.ok()) {
    db_->AbandonTransaction();
    return doc_id;
  }
  uint64_t epoch_before = db_->commit_epoch();
  netmark::Status committed = CommitTransactionLocked();
  if (!committed.ok()) {
    if (db_->commit_epoch() == epoch_before) {
      // The commit itself failed: nothing was published or acknowledged, so
      // the half-inserted in-memory rows must not become servable either.
      // Purge them before releasing the writer lock; the WriterView makes
      // the purge read its own uncommitted rows.
      (void)DeleteDocumentLocked(*doc_id);
      return committed;
    }
    // The commit landed durably; only the piggybacked size-triggered
    // checkpoint failed (and degraded the store). The document is on the
    // log and will survive a restart — acknowledge it.
  }
  return doc_id;
}

netmark::Result<int64_t> XmlStore::InsertPreparedLocked(const PreparedDocument& prepared) {
  int64_t doc_id = next_doc_id_++;
  DocRecord doc_rec;
  doc_rec.doc_id = doc_id;
  doc_rec.file_name = prepared.info.file_name;
  doc_rec.file_date = prepared.info.file_date;
  doc_rec.file_size = prepared.info.file_size;
  doc_rec.node_count = static_cast<int64_t>(prepared.nodes.size());
  NETMARK_RETURN_NOT_OK(doc_table_->Insert(doc_rec.ToRow()).status());

  // Pass 1: pre-order insert (`prepared.nodes` is in document order, parents
  // before children). Parent/prev links are known on the way down; SIBLINGID
  // (next sibling) is patched in pass 2.
  struct Inserted {
    RowId rowid;
    NodeRecord rec;
    bool needs_sibling_patch = false;
  };
  std::vector<Inserted> inserted;
  inserted.reserve(prepared.nodes.size());
  std::map<int64_t, size_t> last_child_of;  // parent_node_id -> index in `inserted`

  for (const PreparedNode& node : prepared.nodes) {
    NodeRecord rec;
    rec.node_id = next_node_id_++;
    rec.doc_id = doc_id;
    rec.node_type = node.node_type;
    rec.node_name = node.node_name;
    rec.node_data = node.node_data;
    if (node.parent == PreparedNode::kNoParent) {
      rec.parent_rowid = storage::kInvalidRowId;
      rec.parent_node_id = 0;
    } else {
      rec.parent_rowid = inserted[node.parent].rowid;
      rec.parent_node_id = inserted[node.parent].rec.node_id;
    }

    // Previous-sibling link.
    auto last_it = last_child_of.find(rec.parent_node_id);
    if (last_it != last_child_of.end()) {
      rec.prev_rowid = inserted[last_it->second].rowid;
    }

    NETMARK_ASSIGN_OR_RETURN(RowId rowid, xml_table_->Insert(rec.ToRow()));
    if (last_it != last_child_of.end()) {
      inserted[last_it->second].rec.sibling_rowid = rowid;
      inserted[last_it->second].needs_sibling_patch = true;
    }
    size_t my_index = inserted.size();
    int64_t parent_node_id = rec.parent_node_id;
    inserted.push_back(Inserted{rowid, std::move(rec), false});
    last_child_of[parent_node_id] = my_index;
  }

  // Pass 2: write back the forward sibling links.
  for (const Inserted& ins : inserted) {
    if (ins.needs_sibling_patch) {
      NETMARK_RETURN_NOT_OK(xml_table_->Update(ins.rowid, ins.rec.ToRow()));
    }
  }

  // Index text content under the final rowids, from the pre-tokenized
  // postings (no re-tokenization on the writer).
  for (size_t i = 0; i < prepared.nodes.size(); ++i) {
    if (prepared.nodes[i].is_text()) {
      text_index_.AddPrepared(inserted[i].rowid.Pack(), prepared.nodes[i].postings);
    }
  }
  return doc_id;
}

netmark::Result<std::vector<std::pair<RowId, NodeRecord>>> XmlStore::DocumentNodes(
    int64_t doc_id) const {
  NETMARK_ASSIGN_OR_RETURN(std::vector<RowId> rowids,
                           xml_table_->IndexPrefix("xml_by_doc",
                                                   IndexKey{Value::Int(doc_id)},
                                                   ResolveReadEpoch()));
  std::vector<std::pair<RowId, NodeRecord>> out;
  out.reserve(rowids.size());
  for (RowId id : rowids) {
    NETMARK_ASSIGN_OR_RETURN(NodeView rec, ReadNode(id));
    out.emplace_back(id, rec.ToRecord());
  }
  return out;
}

netmark::Status XmlStore::DeleteDocument(int64_t doc_id) {
  std::lock_guard<std::mutex> lock(write_mu_);
  WriterView writer(this);
  NETMARK_RETURN_NOT_OK(db_->BeginTransaction());
  netmark::Status st = DeleteDocumentLocked(doc_id);
  if (!st.ok()) {
    db_->AbandonTransaction();
    return st;
  }
  return CommitTransactionLocked();
}

netmark::Status XmlStore::DeleteDocumentLocked(int64_t doc_id) {
  NETMARK_ASSIGN_OR_RETURN(auto nodes, DocumentNodes(doc_id));
  for (const auto& [rowid, rec] : nodes) {
    // Text postings are removed *deferred*: pinned snapshot readers must
    // keep resolving this document's text hits until GC passes their epoch.
    if (rec.is_text()) DeferTextRemoval(rowid.Pack(), rec.node_data);
    NETMARK_RETURN_NOT_OK(xml_table_->Delete(rowid));
  }
  NETMARK_ASSIGN_OR_RETURN(
      std::vector<RowId> doc_rows,
      doc_table_->IndexLookup("doc_by_id", IndexKey{Value::Int(doc_id)},
                              ResolveReadEpoch()));
  if (doc_rows.empty()) {
    return netmark::Status::NotFound(
        netmark::StringPrintf("no document %lld", static_cast<long long>(doc_id)));
  }
  for (RowId id : doc_rows) {
    NETMARK_RETURN_NOT_OK(doc_table_->Delete(id));
  }
  return netmark::Status::OK();
}

netmark::Result<DocRecord> XmlStore::GetDocumentInfo(int64_t doc_id) const {
  const storage::Epoch epoch = ResolveReadEpoch();
  NETMARK_ASSIGN_OR_RETURN(
      std::vector<RowId> doc_rows,
      doc_table_->IndexLookup("doc_by_id", IndexKey{Value::Int(doc_id)}, epoch));
  if (doc_rows.empty()) {
    return netmark::Status::NotFound(
        netmark::StringPrintf("no document %lld", static_cast<long long>(doc_id)));
  }
  NETMARK_ASSIGN_OR_RETURN(Row row, doc_table_->Get(doc_rows[0], epoch));
  return DocRecord::FromRow(row);
}

netmark::Result<std::vector<DocRecord>> XmlStore::ListDocuments() const {
  std::vector<DocRecord> out;
  NETMARK_RETURN_NOT_OK(doc_table_->Scan(
      [&](RowId, const Row& row) -> netmark::Status {
        NETMARK_ASSIGN_OR_RETURN(DocRecord rec, DocRecord::FromRow(row));
        out.push_back(std::move(rec));
        return netmark::Status::OK();
      },
      ResolveReadEpoch()));
  std::sort(out.begin(), out.end(),
            [](const DocRecord& a, const DocRecord& b) { return a.doc_id < b.doc_id; });
  return out;
}

uint64_t XmlStore::document_count() const { return doc_table_->row_count(); }
uint64_t XmlStore::node_count() const { return xml_table_->row_count(); }

namespace {

// Materializes one stored node into `target` under `parent`.
xml::NodeId MaterializeNode(const NodeRecord& rec, xml::Document* target,
                            xml::NodeId parent) {
  xml::NodeId id;
  if (rec.node_type == xml::NetmarkNodeType::kText) {
    if (rec.node_name == kCDataName) {
      id = target->CreateCData(rec.node_data);
    } else {
      id = target->CreateText(rec.node_data);
    }
  } else if (rec.node_name == kCommentName) {
    id = target->CreateComment(rec.node_data);
  } else if (!rec.node_name.empty() && rec.node_name[0] == kPiPrefix) {
    id = target->CreateProcessingInstruction(rec.node_name.substr(1), rec.node_data);
  } else {
    id = target->CreateElement(rec.node_name);
    auto attrs = DecodeAttributes(rec.node_data);
    if (attrs.ok()) {
      for (xml::Attribute& a : *attrs) {
        target->AddAttribute(id, std::move(a.name), std::move(a.value));
      }
    }
  }
  target->AppendChild(parent, id);
  return id;
}

}  // namespace

netmark::Result<xml::Document> XmlStore::Reconstruct(int64_t doc_id) const {
  NETMARK_ASSIGN_OR_RETURN(DocRecord info, GetDocumentInfo(doc_id));
  NETMARK_ASSIGN_OR_RETURN(auto nodes, DocumentNodes(doc_id));
  // Completeness gate: the index the lookup ran over is rebuilt at Open by
  // scanning the heap, and that scan skips quarantined (checksum-failed)
  // pages — rows lost that way are silently absent here, not errors. The
  // stored node count turns the silence back into a detectable failure.
  if (static_cast<int64_t>(nodes.size()) != info.node_count) {
    if (quarantined_pages() > 0) {
      NoteQuarantinedDoc(doc_id);
      return netmark::Status::DataLoss(netmark::StringPrintf(
          "document %lld: %lld of %lld nodes lost to quarantined pages",
          static_cast<long long>(doc_id),
          static_cast<long long>(info.node_count -
                                 static_cast<int64_t>(nodes.size())),
          static_cast<long long>(info.node_count)));
    }
    return netmark::Status::Corruption(netmark::StringPrintf(
        "document %lld has %zu nodes, expected %lld",
        static_cast<long long>(doc_id), nodes.size(),
        static_cast<long long>(info.node_count)));
  }
  xml::Document out;
  std::map<int64_t, xml::NodeId> by_node_id;  // stored NODEID -> DOM id
  // `nodes` is in NODEID (pre-order) order, so parents precede children.
  for (const auto& [rowid, rec] : nodes) {
    xml::NodeId parent = out.root();
    if (rec.parent_node_id != 0) {
      auto it = by_node_id.find(rec.parent_node_id);
      if (it == by_node_id.end()) {
        return netmark::Status::Corruption(netmark::StringPrintf(
            "node %lld references missing parent %lld",
            static_cast<long long>(rec.node_id),
            static_cast<long long>(rec.parent_node_id)));
      }
      parent = it->second;
    }
    by_node_id[rec.node_id] = MaterializeNode(rec, &out, parent);
  }
  return out;
}

netmark::Result<xml::Document> XmlStore::ReconstructSubtree(RowId node) const {
  NETMARK_ASSIGN_OR_RETURN(NodeView root, ReadNode(node));
  xml::Document out;
  NETMARK_RETURN_NOT_OK(ReconstructSubtree(root, &out, out.root()));
  return out;
}

netmark::Status XmlStore::ReconstructSubtree(const NodeView& root, xml::Document* out,
                                             xml::NodeId parent) const {
  struct Pending {
    NodeRecord rec;
    xml::NodeId parent;
  };
  std::vector<Pending> stack;
  stack.push_back(Pending{root.ToRecord(), parent});
  while (!stack.empty()) {
    Pending p = std::move(stack.back());
    stack.pop_back();
    xml::NodeId dom_id = MaterializeNode(p.rec, out, p.parent);
    if (p.rec.is_text()) continue;  // text rows are leaves
    NETMARK_ASSIGN_OR_RETURN(auto kids, OrderedChildren(p.rec.node_id));
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back(Pending{std::move(it->second), dom_id});
    }
  }
  return netmark::Status::OK();
}

netmark::Result<NodeView> XmlStore::ReadNode(RowId id) const {
  NETMARK_ASSIGN_OR_RETURN(storage::RecordRef record,
                           xml_table_->Read(id, ResolveReadEpoch()));
  return NodeView::Decode(std::move(record));
}

netmark::Result<std::vector<std::pair<RowId, NodeRecord>>>
XmlStore::OrderedChildren(int64_t parent_node_id) const {
  NETMARK_ASSIGN_OR_RETURN(std::vector<RowId> rowids,
                           NodesWithParent(parent_node_id));
  std::vector<std::pair<RowId, NodeRecord>> out;
  out.reserve(rowids.size());
  for (RowId id : rowids) {
    NETMARK_ASSIGN_OR_RETURN(NodeView child, ReadNode(id));
    out.emplace_back(id, child.ToRecord());
  }
  // Order by NODEID (document order).
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.second.node_id < b.second.node_id;
  });
  return out;
}

netmark::Result<std::vector<RowId>> XmlStore::Children(RowId node) const {
  NETMARK_ASSIGN_OR_RETURN(NodeView rec, ReadNode(node));
  NETMARK_ASSIGN_OR_RETURN(auto kids, OrderedChildren(rec.node_id));
  std::vector<RowId> out;
  out.reserve(kids.size());
  for (const auto& [id, child] : kids) out.push_back(id);
  return out;
}

netmark::Result<std::vector<RowId>> XmlStore::NodesWithParent(
    int64_t parent_node_id) const {
  return xml_table_->IndexLookup("xml_by_parent",
                                 IndexKey{Value::Int(parent_node_id)},
                                 ResolveReadEpoch());
}

netmark::Result<RowId> XmlStore::NodeByDocAndId(int64_t doc_id, int64_t node_id) const {
  NETMARK_ASSIGN_OR_RETURN(
      std::vector<RowId> hits,
      xml_table_->IndexLookup("xml_by_doc",
                              IndexKey{Value::Int(doc_id), Value::Int(node_id)},
                              ResolveReadEpoch()));
  if (hits.empty()) {
    return netmark::Status::NotFound(netmark::StringPrintf(
        "no node %lld in document %lld", static_cast<long long>(node_id),
        static_cast<long long>(doc_id)));
  }
  return hits[0];
}

netmark::Result<std::string> XmlStore::SubtreeText(RowId node) const {
  NETMARK_ASSIGN_OR_RETURN(NodeView root, ReadNode(node));
  return SubtreeText(root);
}

netmark::Result<std::string> XmlStore::SubtreeText(const NodeView& root) const {
  if (root.is_text()) return std::string(root.node_data);
  std::string out;
  std::vector<NodeRecord> stack;
  auto push_children = [&](int64_t node_id) -> netmark::Status {
    NETMARK_ASSIGN_OR_RETURN(auto kids, OrderedChildren(node_id));
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) {
      stack.push_back(std::move(it->second));
    }
    return netmark::Status::OK();
  };
  NETMARK_RETURN_NOT_OK(push_children(root.node_id));
  while (!stack.empty()) {
    NodeRecord rec = std::move(stack.back());
    stack.pop_back();
    if (rec.is_text()) {
      if (!out.empty()) out += ' ';
      out += rec.node_data;
      continue;
    }
    NETMARK_RETURN_NOT_OK(push_children(rec.node_id));
  }
  return out;
}

std::vector<RowId> XmlStore::TextLookup(std::string_view term) const {
  std::vector<RowId> out;
  for (textindex::DocKey key : text_index_.LookupTerm(term)) {
    out.push_back(RowId::Unpack(key));
  }
  return out;
}

netmark::Status XmlStore::Checkpoint() {
  std::lock_guard<std::mutex> lock(write_mu_);
  return CheckpointLocked();
}

netmark::Status XmlStore::CheckpointLocked() {
  observability::ScopedTimer timer(handles_.checkpoint_micros);
  NETMARK_RETURN_NOT_OK(db_->Checkpoint());
  handles_.checkpoints->Increment();
  PublishWalCounters();
  return netmark::Status::OK();
}

netmark::Status XmlStore::CommitTransactionLocked() {
  {
    observability::ScopedTimer timer(handles_.commit_micros);
    NETMARK_RETURN_NOT_OK(db_->CommitTransaction());
  }
  // Publish the new consistent view: pages become visible under the next
  // epoch atomically, queued index/posting removals are sealed with it, and
  // snapshots taken from here on observe this mutation. Readers pinned at
  // older epochs are untouched — no lock is involved.
  storage::Epoch epoch = db_->PublishVersions();
  SealPendingTextRemovals(epoch);
  last_commit_micros_.store(netmark::MonotonicMicros(), std::memory_order_relaxed);
  PublishWalCounters();
  // Size-triggered checkpoint: bounds both log growth and recovery time.
  if (db_->ShouldCheckpoint()) return CheckpointLocked();
  return netmark::Status::OK();
}

void XmlStore::ScrubBatch(int budget, size_t* table_idx,
                          storage::PageId* next_page) const {
  storage::Table* tables[2] = {xml_table_, doc_table_};
  for (int i = 0; i < budget; ++i) {
    storage::Pager* pager = tables[*table_idx]->mutable_pager();
    if (*next_page >= pager->page_count()) {
      *table_idx = (*table_idx + 1) % 2;
      *next_page = 0;
      if (*table_idx == 0) scrub_passes_.fetch_add(1, std::memory_order_relaxed);
      pager = tables[*table_idx]->mutable_pager();
      if (pager->page_count() == 0) break;  // wrapped onto an empty table
    }
    auto verified = pager->VerifyOnDisk((*next_page)++);
    scrub_pages_scanned_.fetch_add(1, std::memory_order_relaxed);
    // A transient read error is not corruption, but it is a page the scrub
    // could not vouch for — count both so operators see movement.
    if (!verified.ok() || !*verified) {
      scrub_errors_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

void XmlStore::ScrubberLoop(int pages_per_sec) {
  // 100ms ticks: small batches keep the writer-lock hold short, so scrubbing
  // never stalls a mutation for long (readers are unaffected either way —
  // they pin epochs, not locks).
  const int batch = std::max(1, pages_per_sec / 10);
  size_t table_idx = 0;
  storage::PageId next_page = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(scrub_mu_);
      scrub_cv_.wait_for(lock, std::chrono::milliseconds(100), [this] {
        return scrub_stop_.load(std::memory_order_acquire);
      });
    }
    if (scrub_stop_.load(std::memory_order_acquire)) return;
    // Holding write_mu_ excludes Checkpoint: no write can land between the
    // disk read and the CRC check, so a mismatch is real disk rot.
    std::lock_guard<std::mutex> lock(write_mu_);
    ScrubBatch(batch, &table_idx, &next_page);
  }
}

XmlStore::ScrubStats XmlStore::ScrubAll() const {
  // See ScrubberLoop: the writer lock keeps the CRC probe honest.
  std::lock_guard<std::mutex> lock(write_mu_);
  ScrubStats stats;
  for (storage::Table* table : {xml_table_, doc_table_}) {
    storage::Pager* pager = table->mutable_pager();
    for (storage::PageId id = 0; id < pager->page_count(); ++id) {
      auto verified = pager->VerifyOnDisk(id);
      ++stats.pages_scanned;
      if (!verified.ok() || !*verified) ++stats.errors_found;
    }
  }
  scrub_pages_scanned_.fetch_add(stats.pages_scanned, std::memory_order_relaxed);
  scrub_errors_.fetch_add(stats.errors_found, std::memory_order_relaxed);
  scrub_passes_.fetch_add(1, std::memory_order_relaxed);
  return stats;
}

uint64_t XmlStore::quarantined_pages() const {
  return xml_table_->pager().quarantined_count() +
         doc_table_->pager().quarantined_count();
}

uint64_t XmlStore::quarantined_doc_count() const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return quarantined_docs_.size();
}

std::vector<int64_t> XmlStore::QuarantinedDocs() const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  return std::vector<int64_t>(quarantined_docs_.begin(), quarantined_docs_.end());
}

void XmlStore::NoteQuarantinedDoc(int64_t doc_id) const {
  std::lock_guard<std::mutex> lock(quarantine_mu_);
  quarantined_docs_.insert(doc_id);
}

void XmlStore::BindMetrics(observability::MetricsRegistry* registry) {
  if (registry == nullptr || registry == metrics_) return;
  metrics_ = registry;
  BindHandles();
}

void XmlStore::BindHandles() {
  handles_.wal_bytes = metrics_->GetCounter("netmark_wal_bytes_appended_total");
  handles_.wal_records = metrics_->GetCounter("netmark_wal_records_total");
  handles_.wal_fsyncs = metrics_->GetCounter("netmark_wal_fsyncs_total");
  handles_.wal_commits = metrics_->GetCounter("netmark_wal_commits_total");
  handles_.checkpoints = metrics_->GetCounter("netmark_checkpoints_total");
  handles_.commit_micros = metrics_->GetHistogram("netmark_wal_commit_micros");
  handles_.checkpoint_micros =
      metrics_->GetHistogram("netmark_checkpoint_micros");
  metrics_->SetCallbackGauge("netmark_wal_size_bytes", {}, [this] {
    return static_cast<double>(db_->wal()->size_bytes());
  });
  metrics_->SetCallbackGauge("netmark_wal_last_checkpoint_lsn", {}, [this] {
    return static_cast<double>(db_->last_checkpoint_lsn());
  });
  metrics_->SetCallbackGauge("netmark_storage_recovery_performed", {}, [this] {
    return db_->recovery_stats().performed ? 1.0 : 0.0;
  });
  metrics_->SetCallbackGauge("netmark_storage_recovery_micros", {}, [this] {
    return static_cast<double>(db_->recovery_stats().micros);
  });
  metrics_->SetCallbackGauge("netmark_storage_recovery_pages_applied", {}, [this] {
    return static_cast<double>(db_->recovery_stats().pages_applied);
  });
  // Snapshot-isolation view of the serving path (docs/serving.md,
  // docs/mvcc.md).
  metrics_->SetCallbackGauge("netmark_snapshot_epoch", {}, [this] {
    return static_cast<double>(db_->commit_epoch());
  });
  metrics_->SetCallbackGauge("netmark_snapshot_active_readers", {}, [this] {
    return static_cast<double>(active_readers_.load(std::memory_order_relaxed));
  });
  metrics_->SetCallbackGauge("netmark_snapshot_age_seconds", {}, [this] {
    int64_t last = last_commit_micros_.load(std::memory_order_relaxed);
    if (last == 0) return 0.0;
    return static_cast<double>(netmark::MonotonicMicros() - last) / 1e6;
  });
  // MVCC version lifecycle (docs/mvcc.md).
  metrics_->SetCallbackGauge("netmark_mvcc_versions_retained", {}, [this] {
    return static_cast<double>(db_->retained_versions());
  });
  metrics_->SetCallbackGauge("netmark_mvcc_oldest_pinned_epoch", {}, [this] {
    return static_cast<double>(OldestPinnedEpoch());
  });
  metrics_->SetCallbackCounter("netmark_mvcc_gc_reclaimed_total", {}, [this] {
    return db_->versions_reclaimed();
  });
  // Disk-fault containment (docs/durability.md). Scrub totals live in
  // atomics (the scrubber thread must not race a BindMetrics re-home), so
  // they surface as callback counters — the `_total` names are monotonic
  // and must carry `# TYPE ... counter`, not gauge.
  metrics_->SetCallbackCounter("netmark_scrub_pages_total", {}, [this] {
    return scrub_pages_scanned_.load(std::memory_order_relaxed);
  });
  metrics_->SetCallbackCounter("netmark_scrub_errors_total", {}, [this] {
    return scrub_errors_.load(std::memory_order_relaxed);
  });
  metrics_->SetCallbackCounter("netmark_scrub_passes_total", {}, [this] {
    return scrub_passes_.load(std::memory_order_relaxed);
  });
  metrics_->SetCallbackGauge("netmark_storage_quarantined_pages", {}, [this] {
    return static_cast<double>(quarantined_pages());
  });
  metrics_->SetCallbackGauge("netmark_storage_quarantined_docs", {}, [this] {
    return static_cast<double>(quarantined_doc_count());
  });
  metrics_->SetCallbackGauge("netmark_storage_degraded", {}, [this] {
    return db_->degraded() ? 1.0 : 0.0;
  });
}

void XmlStore::PublishWalCounters() {
  const storage::Wal* wal = db_->wal();
  // Single-writer deltas: wal counters only advance under write_mu_, which
  // the caller holds.
  uint64_t bytes = wal->bytes_appended();
  uint64_t records = wal->records_appended();
  uint64_t fsyncs = wal->fsyncs();
  uint64_t commits = wal->commits();
  handles_.wal_bytes->Increment(bytes - wal_seen_.bytes);
  handles_.wal_records->Increment(records - wal_seen_.records);
  handles_.wal_fsyncs->Increment(fsyncs - wal_seen_.fsyncs);
  handles_.wal_commits->Increment(commits - wal_seen_.commits);
  wal_seen_ = {bytes, records, fsyncs, commits};
}

netmark::Result<std::vector<RowId>> XmlStore::TextScanMatch(
    const textindex::TextQuery& query) const {
  std::vector<RowId> out;
  if (query.empty()) return out;
  NETMARK_RETURN_NOT_OK(xml_table_->ScanRecords(
      [&](RowId id, std::string_view bytes) -> netmark::Status {
        NETMARK_ASSIGN_OR_RETURN(NodeView rec, NodeView::Decode(bytes));
        if (rec.is_text() && textindex::Matches(query, rec.node_data)) {
          out.push_back(id);
        }
        return netmark::Status::OK();
      },
      ResolveReadEpoch()));
  return out;
}

}  // namespace netmark::xmlstore
