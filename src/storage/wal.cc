#include "storage/wal.h"

#include <cstring>

#include "common/crc32.h"
#include "common/string_util.h"
#include "observability/thread_trace.h"
#include "storage/crash_point.h"

namespace netmark::storage {

namespace {

constexpr size_t kFrameHeader = 8;  // u32 body_len + u32 crc
constexpr size_t kBodyFixed = 17;   // u64 lsn + u64 txn + u8 type

void Put16(std::string* out, uint16_t v) {
  out->append(reinterpret_cast<const char*>(&v), 2);
}
void Put32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), 4);
}
void Put64(std::string* out, uint64_t v) {
  out->append(reinterpret_cast<const char*>(&v), 8);
}

}  // namespace

netmark::Result<WalScan> Wal::ReadRecords(const std::string& path,
                                          netmark::Env* env) {
  if (env == nullptr) env = netmark::Env::Default();
  WalScan scan;
  if (!env->FileExists(path)) return scan;  // no log = empty scan
  NETMARK_ASSIGN_OR_RETURN(std::string buf, env->ReadFileToString(path));

  auto tear = [&](size_t at, const char* reason) {
    scan.valid_bytes = at;
    scan.torn_tail = at < buf.size();
    scan.torn_reason = scan.torn_tail ? reason : "";
  };

  size_t pos = 0;
  while (pos < buf.size()) {
    if (buf.size() - pos < kFrameHeader) {
      tear(pos, "short frame header");
      return scan;
    }
    uint32_t body_len, crc;
    std::memcpy(&body_len, buf.data() + pos, 4);
    std::memcpy(&crc, buf.data() + pos + 4, 4);
    // A body is never larger than one page image plus its descriptors.
    if (body_len < kBodyFixed ||
        body_len > kBodyFixed + 2 + 65535 + 4 + kPageSize) {
      tear(pos, "implausible record length");
      return scan;
    }
    if (buf.size() - pos - kFrameHeader < body_len) {
      tear(pos, "short record body");
      return scan;
    }
    const char* body = buf.data() + pos + kFrameHeader;
    if (netmark::Crc32c(body, body_len) != crc) {
      tear(pos, "crc mismatch");
      return scan;
    }
    WalRecord rec;
    uint8_t type;
    std::memcpy(&rec.lsn, body, 8);
    std::memcpy(&rec.txn_id, body + 8, 8);
    std::memcpy(&type, body + 16, 1);
    const char* payload = body + kBodyFixed;
    size_t payload_len = body_len - kBodyFixed;
    if (type == static_cast<uint8_t>(WalRecordType::kPageImage)) {
      rec.type = WalRecordType::kPageImage;
      if (payload_len < 2) {
        tear(pos, "page image payload too short");
        return scan;
      }
      uint16_t table_len;
      std::memcpy(&table_len, payload, 2);
      if (payload_len != 2 + static_cast<size_t>(table_len) + 4 + kPageSize) {
        tear(pos, "page image payload size mismatch");
        return scan;
      }
      rec.table.assign(payload + 2, table_len);
      std::memcpy(&rec.page_id, payload + 2 + table_len, 4);
      rec.image.assign(payload + 2 + table_len + 4, kPageSize);
    } else if (type == static_cast<uint8_t>(WalRecordType::kCommit)) {
      rec.type = WalRecordType::kCommit;
      if (payload_len != 0) {
        tear(pos, "commit record with payload");
        return scan;
      }
    } else {
      tear(pos, "unknown record type");
      return scan;
    }
    scan.records.push_back(std::move(rec));
    pos += kFrameHeader + body_len;
  }
  scan.valid_bytes = pos;
  return scan;
}

netmark::Result<std::unique_ptr<Wal>> Wal::Open(const std::string& path,
                                                netmark::Env* env) {
  if (env == nullptr) env = netmark::Env::Default();
  NETMARK_ASSIGN_OR_RETURN(WalScan scan, ReadRecords(path, env));
  NETMARK_ASSIGN_OR_RETURN(std::unique_ptr<netmark::File> file,
                           env->OpenFile(path, /*create=*/true));
  if (scan.torn_tail) {
    NETMARK_RETURN_NOT_OK(
        file->Truncate(scan.valid_bytes).WithContext("truncate torn wal tail"));
  }
  std::unique_ptr<Wal> wal(new Wal(path, std::move(file)));
  wal->append_offset_ = scan.valid_bytes;
  wal->size_bytes_.store(scan.valid_bytes, std::memory_order_relaxed);
  if (!scan.records.empty()) {
    uint64_t last = scan.records.back().lsn;
    wal->next_lsn_ = last + 1;
    wal->last_lsn_.store(last, std::memory_order_relaxed);
  }
  return wal;
}

Wal::~Wal() = default;

void Wal::EncodeRecord(uint64_t txn_id, WalRecordType type,
                       std::string_view payload, std::string* out) {
  std::string body;
  body.reserve(kBodyFixed + payload.size());
  Put64(&body, next_lsn_);
  Put64(&body, txn_id);
  body.push_back(static_cast<char>(type));
  body.append(payload.data(), payload.size());
  Put32(out, static_cast<uint32_t>(body.size()));
  Put32(out, netmark::Crc32c(body));
  out->append(body);
  last_lsn_.store(next_lsn_, std::memory_order_relaxed);
  ++next_lsn_;
  ++staged_records_;
}

void Wal::StagePageImage(uint64_t txn_id, std::string_view table, PageId page_id,
                         const uint8_t* image) {
  std::string payload;
  payload.reserve(2 + table.size() + 4 + kPageSize);
  Put16(&payload, static_cast<uint16_t>(table.size()));
  payload.append(table.data(), table.size());
  Put32(&payload, page_id);
  payload.append(reinterpret_cast<const char*>(image), kPageSize);
  EncodeRecord(txn_id, WalRecordType::kPageImage, payload, &staged_);
}

netmark::Status Wal::AppendCommit(uint64_t txn_id) {
  EncodeRecord(txn_id, WalRecordType::kCommit, {}, &staged_);
  // Attributed to whatever trace the calling thread carries (an /xdb PUT or
  // a daemon insert); untraced callers make this inert.
  observability::ScopedSpan span(observability::CurrentThreadTrace(),
                                 "wal_append",
                                 observability::CurrentThreadSpan());
  span.Annotate("bytes", std::to_string(staged_.size()));
  observability::ThreadTraceScope nest(observability::CurrentThreadTrace(),
                                       span.id());
  // One write for the whole transaction: page images + commit. A crash mid-
  // write leaves a CRC-torn tail that recovery drops — the transaction simply
  // never happened.
  MaybeCrashPoint("wal_before_append");
  NETMARK_RETURN_NOT_OK(file_->Write(append_offset_, staged_.data(), staged_.size()));
  append_offset_ += staged_.size();
  size_bytes_.fetch_add(staged_.size(), std::memory_order_relaxed);
  bytes_appended_.fetch_add(staged_.size(), std::memory_order_relaxed);
  records_appended_.fetch_add(staged_records_, std::memory_order_relaxed);
  commits_.fetch_add(1, std::memory_order_relaxed);
  staged_.clear();
  staged_records_ = 0;
  MaybeCrashPoint("wal_after_append");
  observability::ScopedSpan fsync_span(observability::CurrentThreadTrace(),
                                       "wal_fsync", span.id());
  netmark::Status st = file_->Sync();
  if (!st.ok()) {
    fsync_span.End(false, st.ToString());
    return st;
  }
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  MaybeCrashPoint("wal_after_commit_sync");
  return netmark::Status::OK();
}

void Wal::DiscardStaged() {
  // The LSNs consumed by the discarded records are simply skipped; readers
  // only require LSNs to be increasing, not dense.
  staged_.clear();
  staged_records_ = 0;
}

netmark::Status Wal::TruncateAll() {
  MaybeCrashPoint("wal_before_truncate");
  NETMARK_RETURN_NOT_OK(file_->Truncate(0).WithContext("wal truncate"));
  append_offset_ = 0;
  // Make the truncation durable so recovery never replays pre-checkpoint
  // images over post-checkpoint heap state (replay is idempotent anyway, but
  // the bounded-recovery-time guarantee depends on the log actually
  // shrinking).
  NETMARK_RETURN_NOT_OK(file_->Sync());
  fsyncs_.fetch_add(1, std::memory_order_relaxed);
  size_bytes_.store(0, std::memory_order_relaxed);
  truncations_.fetch_add(1, std::memory_order_relaxed);
  MaybeCrashPoint("wal_after_truncate");
  return netmark::Status::OK();
}

}  // namespace netmark::storage
