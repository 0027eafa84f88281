#include "server/daemon.h"

#include <algorithm>
#include <condition_variable>
#include <optional>

#include "common/clock.h"
#include "common/logging.h"
#include "common/temp_dir.h"
#include "common/work_queue.h"
#include "observability/thread_trace.h"
#include "observability/trace_context.h"

namespace netmark::server {

namespace fs = std::filesystem;

IngestionDaemon::IngestionDaemon(xmlstore::XmlStore* store,
                                 const convert::ConverterRegistry* converters,
                                 DaemonOptions options)
    : store_(store), converters_(converters), options_(std::move(options)) {
  owned_metrics_ = std::make_unique<observability::MetricsRegistry>();
  metrics_ = owned_metrics_.get();
  BindHandles();
}

void IngestionDaemon::BindHandles() {
  handles_.queued = metrics_->GetCounter("netmark_ingest_queued_total");
  handles_.converted = metrics_->GetCounter("netmark_ingest_converted_total");
  handles_.inserted = metrics_->GetCounter("netmark_ingest_inserted_total");
  handles_.failed = metrics_->GetCounter("netmark_ingest_failed_total");
  handles_.deferred = metrics_->GetCounter("netmark_ingest_deferred_total");
  handles_.prepare_micros =
      metrics_->GetHistogram("netmark_ingest_prepare_micros");
  handles_.insert_micros = metrics_->GetHistogram("netmark_ingest_insert_micros");
}

void IngestionDaemon::BindMetrics(observability::MetricsRegistry* registry) {
  if (registry == nullptr || registry == metrics_) return;
  // owned_metrics_ stays alive so counts recorded before the rebind remain
  // readable there (they are not carried over).
  metrics_ = registry;
  BindHandles();
}

netmark::Status IngestionDaemon::Start() {
  if (running_.load()) return netmark::Status::AlreadyExists("daemon already running");
  std::error_code ec;
  fs::create_directories(options_.drop_dir, ec);
  if (ec) {
    return netmark::Status::IOError("cannot create drop dir: " + ec.message());
  }
  running_.store(true);
  thread_ = std::thread([this] { Loop(); });
  return netmark::Status::OK();
}

void IngestionDaemon::Stop() {
  if (!running_.exchange(false)) return;
  if (thread_.joinable()) thread_.join();
}

void IngestionDaemon::Loop() {
  while (running_.load()) {
    // Sampled sweep tracing: the daemon has no request to piggyback on, so
    // it rolls the shared ring's head sampler itself. Only sweeps that did
    // work (or failed) are recorded — idle polls would flood the ring.
    std::shared_ptr<observability::Trace> trace;
    if (trace_store_ != nullptr && trace_store_->ShouldSample()) {
      trace = std::make_shared<observability::Trace>();
      trace->set_trace_id(observability::GenerateTraceId());
    }
    auto processed = ProcessOnce(trace.get(), -1);
    if (trace != nullptr && (!processed.ok() || *processed > 0)) {
      trace_store_->Record(trace, /*head_sampled=*/true,
                           /*error=*/!processed.ok());
    }
    if (!processed.ok()) {
      NETMARK_LOG(Warning) << "daemon sweep failed: " << processed.status();
    } else if (*processed == 0) {
      // Idle sweep: fold outstanding log into a checkpoint so a later crash
      // recovers instantly and the log does not sit un-truncated overnight.
      // A degraded (read-only) store cannot checkpoint; retrying every poll
      // would only spam the log, so wait for an operator restart instead.
      if (store_->database()->wal()->size_bytes() > 0 && !store_->degraded()) {
        netmark::Status st = store_->Checkpoint();
        if (!st.ok()) {
          NETMARK_LOG(Warning) << "idle checkpoint failed: " << st;
        }
      }
    }
    std::this_thread::sleep_for(options_.poll_interval);
  }
}

DaemonCounters IngestionDaemon::counters() const {
  DaemonCounters c;
  c.queued = handles_.queued->value();
  c.converted = handles_.converted->value();
  c.inserted = handles_.inserted->value();
  c.failed = handles_.failed->value();
  c.deferred = handles_.deferred->value();
  // Stage wall time is kept in the histograms (microsecond samples).
  c.convert_ns = static_cast<uint64_t>(handles_.prepare_micros->sum()) * 1000;
  c.insert_ns = static_cast<uint64_t>(handles_.insert_micros->sum()) * 1000;
  return c;
}

int IngestionDaemon::EffectiveWorkers() const {
  if (options_.worker_threads > 0) return options_.worker_threads;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::vector<fs::path> IngestionDaemon::CollectStable() {
  std::error_code ec;
  std::vector<fs::path> eligible;
  if (!fs::exists(options_.drop_dir, ec)) return eligible;
  std::chrono::milliseconds stable_age =
      options_.stable_age.count() < 0 ? options_.poll_interval : options_.stable_age;
  auto now = fs::file_time_type::clock::now();
  std::map<fs::path, FileSig> still_unstable;
  for (const auto& entry : fs::directory_iterator(options_.drop_dir, ec)) {
    if (ec) break;
    if (!entry.is_regular_file()) continue;
    std::string name = entry.path().filename().string();
    if (name.empty() || name[0] == '.') continue;  // editors' temp files
    if (stable_age.count() == 0) {
      eligible.push_back(entry.path());
      continue;
    }
    FileSig sig;
    std::error_code stat_ec;
    sig.size = entry.file_size(stat_ec);
    if (!stat_ec) sig.mtime = entry.last_write_time(stat_ec);
    if (stat_ec) continue;  // vanished mid-scan; next sweep decides
    if (now - sig.mtime >= stable_age) {
      // Old enough that no writer is plausibly mid-copy.
      eligible.push_back(entry.path());
      continue;
    }
    auto it = unstable_.find(entry.path());
    if (it != unstable_.end() && it->second.size == sig.size &&
        it->second.mtime == sig.mtime) {
      // Unchanged since the previous sweep: size-stable across two polls.
      eligible.push_back(entry.path());
      continue;
    }
    still_unstable.emplace(entry.path(), sig);
    handles_.deferred->Increment();
  }
  // Forget files that were ingested or removed; remember fresh signatures.
  unstable_ = std::move(still_unstable);
  std::sort(eligible.begin(), eligible.end());  // deterministic order
  return eligible;
}

IngestionDaemon::PreparedFile IngestionDaemon::PrepareFile(
    const fs::path& path, observability::Trace* trace, int parent_span) {
  PreparedFile out;
  observability::ScopedSpan span(trace, "prepare", parent_span);
  span.Annotate("file", path.filename().string());
  observability::ScopedTimer timer(handles_.prepare_micros);
  auto prepare = [&]() -> netmark::Status {
    NETMARK_ASSIGN_OR_RETURN(std::string content, netmark::ReadFile(path));
    NETMARK_ASSIGN_OR_RETURN(
        xml::Document doc, converters_->Convert(path.filename().string(), content));
    xmlstore::DocumentInfo info;
    info.file_name = path.filename().string();
    info.file_date = netmark::WallSeconds();
    info.file_size = static_cast<int64_t>(content.size());
    out.prepared = xmlstore::PrepareDocument(doc, info, store_->node_types());
    return netmark::Status::OK();
  };
  out.status = prepare();
  if (out.status.ok()) handles_.converted->Increment();
  span.End(out.status.ok(), out.status.ok() ? "" : out.status.ToString());
  return out;
}

bool IngestionDaemon::CommitFile(const fs::path& path, PreparedFile result,
                                 observability::Trace* trace, int parent_span) {
  netmark::Status st = result.status;
  if (st.ok()) {
    observability::ScopedSpan span(trace, "insert", parent_span);
    span.Annotate("file", path.filename().string());
    observability::ScopedTimer timer(handles_.insert_micros);
    // WAL append/fsync spans bind via the thread-local trace, under "insert".
    observability::ThreadTraceScope wal_nest(trace, span.id());
    st = store_->InsertPrepared(result.prepared).status();
    span.End(st.ok(), st.ok() ? "" : st.ToString());
  }
  if (st.ok()) {
    handles_.inserted->Increment();
  } else if (st.IsUnavailable() || st.IsCapacityExceeded() || st.IsIOError()) {
    // Storage-level failure (degraded read-only store, full disk, transient
    // I/O): the file itself is fine, so leave it in the drop dir — a later
    // sweep retries it once the operator restores the disk. Moving it to
    // failed/ would misfile good input as bad.
    handles_.deferred->Increment();
    NETMARK_LOG(Warning) << "deferring ingest of " << path.string() << ": " << st;
    return false;
  } else {
    handles_.failed->Increment();
    NETMARK_LOG(Warning) << "failed to ingest " << path.string() << ": " << st;
  }
  std::error_code ec;
  fs::path target_dir = options_.drop_dir / (st.ok() ? "processed" : "failed");
  fs::create_directories(target_dir, ec);
  fs::rename(path, target_dir / path.filename(), ec);
  if (ec) fs::remove(path, ec);
  return st.ok();
}

netmark::Result<int> IngestionDaemon::ProcessOnce(observability::Trace* trace,
                                                  int parent_span) {
  std::lock_guard<std::mutex> lock(sweep_mu_);
  observability::ScopedSpan sweep(trace, "sweep", parent_span);
  std::vector<fs::path> pending = CollectStable();
  sweep.Annotate("files", std::to_string(pending.size()));
  if (pending.empty()) return 0;
  handles_.queued->Increment(pending.size());

  const size_t n = pending.size();
  const int workers = std::min<int>(EffectiveWorkers(), static_cast<int>(n));
  int count = 0;

  if (workers <= 1) {
    // Inline pipeline: same prepare/commit stages, no threads. Byte-identical
    // output to the threaded path because commits happen in `pending` order
    // either way.
    for (const fs::path& path : pending) {
      if (CommitFile(path, PrepareFile(path, trace, sweep.id()), trace,
                     sweep.id())) {
        ++count;
      }
    }
    sweep.Annotate("ingested", std::to_string(count));
    return count;
  }

  struct WorkItem {
    size_t seq;
    fs::path path;
  };
  // Bounded: backpressure keeps at most ~2 batches of read file contents and
  // prepared documents in flight per worker.
  WorkQueue<WorkItem> queue(static_cast<size_t>(workers) * 2);

  // Reorder buffer: workers finish in arbitrary order; the writer commits
  // strictly in sequence so doc ids follow sorted-filename order.
  std::mutex results_mu;
  std::condition_variable results_cv;
  std::map<size_t, PreparedFile> results;

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers) + 1);
  for (int w = 0; w < workers; ++w) {
    pool.emplace_back([&, trace, sweep_id = sweep.id()] {
      while (std::optional<WorkItem> item = queue.Pop()) {
        PreparedFile result = PrepareFile(item->path, trace, sweep_id);
        {
          std::lock_guard<std::mutex> results_lock(results_mu);
          results.emplace(item->seq, std::move(result));
        }
        results_cv.notify_all();
      }
    });
  }
  // Feeding the bounded queue would block once it fills, so it runs on its
  // own thread while this thread drains results as the writer.
  pool.emplace_back([&] {
    for (size_t i = 0; i < n; ++i) {
      if (!queue.Push(WorkItem{i, pending[i]})) break;
    }
    queue.Close();
  });

  for (size_t seq = 0; seq < n; ++seq) {
    PreparedFile result;
    {
      std::unique_lock<std::mutex> results_lock(results_mu);
      results_cv.wait(results_lock, [&] { return results.count(seq) > 0; });
      auto it = results.find(seq);
      result = std::move(it->second);
      results.erase(it);
    }
    if (CommitFile(pending[seq], std::move(result), trace, sweep.id())) ++count;
  }
  for (std::thread& t : pool) t.join();
  sweep.Annotate("ingested", std::to_string(count));
  return count;
}

}  // namespace netmark::server
