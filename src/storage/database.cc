#include "storage/database.h"

#include <filesystem>

#include "common/string_util.h"
#include "storage/crash_point.h"

namespace netmark::storage {

namespace fs = std::filesystem;

netmark::Result<std::unique_ptr<Database>> Database::Open(
    const std::string& dir, const StorageOptions& options) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return netmark::Status::IOError("cannot create database directory " + dir + ": " +
                                    ec.message());
  }
  std::unique_ptr<Database> db(new Database(dir, options));
  // Replay a crashed predecessor's committed transactions into the heap
  // files BEFORE any table is opened (Table::Open scans pages to rebuild
  // its B-trees, so it must see post-recovery bytes).
  NETMARK_ASSIGN_OR_RETURN(db->recovery_,
                           RecoverDatabase(dir, db->WalPath(), options.env));
  NETMARK_ASSIGN_OR_RETURN(db->wal_, Wal::Open(db->WalPath(), options.env));
  NETMARK_ASSIGN_OR_RETURN(db->catalog_,
                           Catalog::Load(db->CatalogPath(), options.env));
  for (const TableDef& def : db->catalog_.tables()) {
    NETMARK_ASSIGN_OR_RETURN(
        std::unique_ptr<Table> table,
        Table::Open(def.schema, db->TableFilePath(def.schema.name()), def.indexes,
                    db->MakePagerOptions()));
    db->tables_[def.schema.name()] = std::move(table);
  }
  // Opening a table marks pages dirty while rebuilding (none, normally) —
  // clear the capture sets so the first transaction logs only its own pages.
  for (auto& [name, table] : db->tables_) {
    (void)table->mutable_pager()->TakeDirtySinceMark();
  }
  // DDL counter survives restarts so assembly-cost benchmarks can account
  // full lifetimes.
  netmark::Env* env = options.env != nullptr ? options.env : netmark::Env::Default();
  auto counter = env->ReadFileToString(db->DdlCounterPath());
  if (counter.ok()) {
    auto v = netmark::ParseInt64(*counter);
    if (v.ok()) db->ddl_statements_ = static_cast<uint64_t>(*v);
  }
  return db;
}

Database::~Database() { (void)Checkpoint(); }

std::string Database::TableFilePath(std::string_view table) const {
  return (fs::path(dir_) / (std::string(table) + ".heap")).string();
}
std::string Database::CatalogPath() const {
  return (fs::path(dir_) / "catalog.nmk").string();
}
std::string Database::DdlCounterPath() const {
  return (fs::path(dir_) / "ddl_count.nmk").string();
}
std::string Database::WalPath() const {
  return (fs::path(dir_) / "wal.nmk").string();
}

netmark::Result<Table*> Database::CreateTable(TableSchema schema) {
  if (tables_.count(schema.name()) != 0) {
    return netmark::Status::AlreadyExists("table " + schema.name() + " exists");
  }
  std::string name = schema.name();
  NETMARK_RETURN_NOT_OK(catalog_.AddTable(schema));
  NETMARK_ASSIGN_OR_RETURN(
      std::unique_ptr<Table> table,
      Table::Open(std::move(schema), TableFilePath(name), {}, MakePagerOptions()));
  Table* raw = table.get();
  tables_[name] = std::move(table);
  ++ddl_statements_;
  NETMARK_RETURN_NOT_OK(catalog_.Save(CatalogPath(), options_.env));
  return raw;
}

netmark::Result<Table*> Database::GetTable(std::string_view name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return netmark::Status::NotFound("no table " + std::string(name));
  }
  return it->second.get();
}

netmark::Status Database::CreateIndex(std::string_view table,
                                      const std::string& index_name,
                                      const std::vector<std::string>& columns) {
  NETMARK_ASSIGN_OR_RETURN(Table * t, GetTable(table));
  NETMARK_RETURN_NOT_OK(t->CreateIndex(index_name, columns));
  NETMARK_RETURN_NOT_OK(catalog_.AddIndex(table, IndexDef{index_name, columns}));
  ++ddl_statements_;
  return catalog_.Save(CatalogPath(), options_.env);
}

netmark::Status Database::DropTable(std::string_view name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return netmark::Status::NotFound("no table " + std::string(name));
  }
  tables_.erase(it);
  NETMARK_RETURN_NOT_OK(catalog_.RemoveTable(name));
  std::error_code ec;
  fs::remove(TableFilePath(name), ec);
  ++ddl_statements_;
  return catalog_.Save(CatalogPath(), options_.env);
}

std::vector<std::string> Database::TableNames() const {
  std::vector<std::string> out;
  for (const auto& [name, t] : tables_) out.push_back(name);
  return out;
}

std::string Database::degraded_reason() const {
  std::lock_guard<std::mutex> lock(degraded_mu_);
  return degraded_reason_;
}

netmark::Status Database::DegradedError() const {
  std::lock_guard<std::mutex> lock(degraded_mu_);
  std::string msg = "store is read-only (degraded): " + degraded_reason_;
  return degraded_capacity_ ? netmark::Status::CapacityExceeded(std::move(msg))
                            : netmark::Status::Unavailable(std::move(msg));
}

void Database::MarkDegraded(const netmark::Status& cause) {
  std::lock_guard<std::mutex> lock(degraded_mu_);
  if (!degraded_.load(std::memory_order_relaxed)) {
    degraded_reason_ = cause.ToString();
    degraded_capacity_ = cause.IsCapacityExceeded();
    degraded_.store(true, std::memory_order_release);
  }
}

netmark::Status Database::BeginTransaction() {
  if (degraded()) return DegradedError();
  if (in_txn_) {
    return netmark::Status::Internal("transaction already open");
  }
  in_txn_ = true;
  return netmark::Status::OK();
}

netmark::Status Database::CommitTransaction() {
  if (!in_txn_) {
    return netmark::Status::Internal("no transaction open");
  }
  in_txn_ = false;
  uint64_t txn = next_txn_id_++;
  for (auto& [name, table] : tables_) {
    Pager* pager = table->mutable_pager();
    for (PageId id : pager->TakeDirtySinceMark()) {
      NETMARK_ASSIGN_OR_RETURN(Page page, pager->Fetch(id));
      // Stamp before staging so recovery replays images whose CRC already
      // matches their contents (Publish stamps the same bytes again).
      PageStampChecksum(page.raw());
      wal_->StagePageImage(txn, name, id, page.raw());
    }
  }
  netmark::Status st = wal_->AppendCommit(txn);
  if (!st.ok()) {
    // The commit may or may not be on disk — nothing is acknowledged, and no
    // further mutation can be either: go read-only.
    MarkDegraded(st);
  }
  return st;
}

void Database::AbandonTransaction() {
  in_txn_ = false;
  wal_->DiscardStaged();
  // Dirty-since-mark state intentionally survives: the abandoned pages hold
  // in-memory junk that must still be logged with the next commit, or a
  // later in-place write to those pages would be replayed over stale bytes.
}

bool Database::ShouldCheckpoint() const {
  return wal_->size_bytes() >= options_.checkpoint_bytes;
}

netmark::Status Database::StagePending() {
  // Stage every pending dirty-since-mark image (junk pages left by abandoned
  // transactions, pages the scrubber re-dirtied to heal rot on disk) on the
  // log before the heap flush below: a crash mid-flush must find these
  // images replayable, or a torn heap write of such a page would be
  // unrecoverable.
  uint64_t txn = next_txn_id_++;
  uint64_t staged = 0;
  for (auto& [name, table] : tables_) {
    Pager* pager = table->mutable_pager();
    for (PageId id : pager->TakeDirtySinceMark()) {
      auto page = pager->Fetch(id);
      if (!page.ok()) continue;
      PageStampChecksum(page->raw());
      wal_->StagePageImage(txn, name, id, page->raw());
      ++staged;
    }
  }
  if (staged == 0) return netmark::Status::OK();
  NETMARK_RETURN_NOT_OK(wal_->AppendCommit(txn));
  // The staged images included any unpublished working copies (junk from
  // abandoned transactions). Publish them now so the flush below writes
  // them under log coverage — otherwise their dirty-since-mark entry is
  // consumed here but the bytes would reach the heap only after a *later*
  // commit, without a staged image to replay over a torn write.
  PublishVersions();
  return netmark::Status::OK();
}

netmark::Status Database::Checkpoint() {
  if (degraded()) return DegradedError();
  if (in_txn_) {
    return netmark::Status::Internal(
        "checkpoint refused: transaction open");
  }
  auto fail = [this](netmark::Status st) {
    MarkDegraded(st);
    return st;
  };
  netmark::Status st = StagePending();
  if (!st.ok()) return fail(std::move(st));
  // Order matters: heap writes + fsync BEFORE the log shrinks, so a crash
  // anywhere in between still replays from the intact log.
  for (auto& [name, table] : tables_) {
    st = table->Flush();
    if (!st.ok()) return fail(std::move(st));
    MaybeCrashPoint("checkpoint_after_flush");
    st = table->mutable_pager()->SyncToDisk();
    if (!st.ok()) return fail(std::move(st));
  }
  st = catalog_.Save(CatalogPath(), options_.env);
  if (!st.ok()) return fail(std::move(st));
  netmark::Env* env = options_.env != nullptr ? options_.env : netmark::Env::Default();
  st = env->WriteFileAtomic(DdlCounterPath(), std::to_string(ddl_statements_));
  if (!st.ok()) return fail(std::move(st));
  MaybeCrashPoint("checkpoint_before_truncate");
  st = wal_->TruncateAll();
  if (!st.ok()) return fail(std::move(st));
  last_checkpoint_lsn_ = wal_->last_lsn();
  ++checkpoints_;
  return netmark::Status::OK();
}

Epoch Database::PublishVersions() {
  // Writer thread only (serialized with DDL by the store-level write lock),
  // so the relaxed read of our own last store is safe. The publish store is
  // seq_cst — see commit_epoch() for why.
  Epoch epoch = commit_epoch_.load(std::memory_order_relaxed) + 1;
  for (auto& [name, table] : tables_) {
    table->mutable_pager()->Publish(epoch);
    table->SealPendingRemovals(epoch);
  }
  commit_epoch_.store(epoch, std::memory_order_seq_cst);
  return epoch;
}

uint64_t Database::ReclaimVersions(const std::vector<Epoch>& pins, Epoch cap) {
  const Epoch watermark = pins.empty() ? cap : pins.front();
  uint64_t reclaimed = 0;
  for (auto& [name, table] : tables_) {
    reclaimed += table->mutable_pager()->ReclaimVersions(pins, cap);
    table->ApplyPendingRemovals(watermark);
  }
  return reclaimed;
}

uint64_t Database::retained_versions() const {
  uint64_t total = 0;
  for (const auto& [name, table] : tables_) {
    total += table->pager().retained_versions();
  }
  return total;
}

uint64_t Database::versions_reclaimed() const {
  uint64_t total = 0;
  for (const auto& [name, table] : tables_) {
    total += table->pager().versions_reclaimed();
  }
  return total;
}

}  // namespace netmark::storage
