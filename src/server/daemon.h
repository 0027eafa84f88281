// The NETMARK DAEMON (paper Fig 3): watches a drop folder, runs the SGML
// parser / upmark converters on new files, and inserts them into the XML
// Store — the drag-and-drop ingestion path.
//
// Ingestion is a staged pipeline (DESIGN.md §"Parallel ingestion"):
//
//   enumerate (sorted) -> bounded work queue -> N upmark/parse workers
//     -> reorder buffer -> single writer -> XML Store + text index
//
// Workers do the CPU-heavy, state-free half (read file, convert, flatten,
// tokenize: xmlstore::PrepareDocument); the sweep thread is the only one
// that touches the store (XmlStore::InsertPrepared), committing results in
// sorted-filename order so doc-id assignment is deterministic regardless of
// worker count or completion order.
//
// Pipeline counters and per-stage latency histograms live on a
// MetricsRegistry (netmark_ingest_* — see docs/observability.md);
// DaemonCounters is a thin view over those handles.

#ifndef NETMARK_SERVER_DAEMON_H_
#define NETMARK_SERVER_DAEMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/result.h"
#include "convert/registry.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "observability/trace_store.h"
#include "xmlstore/xml_store.h"

namespace netmark::server {

/// Daemon configuration.
struct DaemonOptions {
  std::filesystem::path drop_dir;
  /// Poll period for the background thread.
  std::chrono::milliseconds poll_interval{200};
  /// Upmark/parse worker threads per sweep. 0 = hardware_concurrency.
  /// 1 runs the same prepare/commit code inline (no threads) — output is
  /// identical either way.
  int worker_threads = 0;
  /// Half-copied drop protection: a file whose mtime is younger than this is
  /// deferred (neither ingested nor failed) until a later sweep observes the
  /// same size+mtime — i.e. size-stable across two polls. Negative = use
  /// poll_interval; zero disables the check (every file is taken as-is,
  /// which is what single-sweep tests and benchmarks want).
  std::chrono::milliseconds stable_age{-1};
};

/// Per-stage pipeline counters (cumulative since construction). A snapshot
/// of the registry counters — the registry is the source of truth.
struct DaemonCounters {
  uint64_t queued = 0;     ///< files handed to the worker stage
  uint64_t converted = 0;  ///< files successfully upmarked + prepared
  uint64_t inserted = 0;   ///< documents committed by the writer stage
  uint64_t failed = 0;     ///< files that failed conversion or insert
  uint64_t deferred = 0;   ///< files skipped as possibly still being written
  uint64_t convert_ns = 0; ///< summed worker wall time (read+convert+prepare)
  uint64_t insert_ns = 0;  ///< summed writer wall time (store+index commit)
};

/// \brief Folder-watching ingestion daemon.
class IngestionDaemon {
 public:
  IngestionDaemon(xmlstore::XmlStore* store,
                  const convert::ConverterRegistry* converters,
                  DaemonOptions options);
  ~IngestionDaemon() { Stop(); }

  /// Re-homes the daemon's metrics (netmark_ingest_* counters and stage
  /// histograms) onto `registry`. Must be called before Start()/ProcessOnce()
  /// — counts recorded earlier stay in the private fallback registry.
  void BindMetrics(observability::MetricsRegistry* registry);
  observability::MetricsRegistry* metrics() const { return metrics_; }

  /// Optional: sample background sweeps into `store` (the service's ring),
  /// so ingestion stalls are debuggable from GET /traces like queries are.
  /// Must be set before Start(). Idle sweeps are never recorded.
  void set_trace_store(observability::TraceStore* store) {
    trace_store_ = store;
  }

  /// Creates the folder structure and starts the polling thread.
  netmark::Status Start();
  /// Stops the thread (joins). Idempotent.
  void Stop();

  /// One synchronous sweep of the drop folder; returns the number of files
  /// ingested. Usable without Start() for deterministic tests/benchmarks.
  netmark::Result<int> ProcessOnce() { return ProcessOnce(nullptr, -1); }

  /// Traced sweep: stage spans (sweep -> prepare/insert per file) are
  /// parented under `parent_span`. `trace` may be null. Thread-safe Trace:
  /// prepare spans are recorded from worker threads.
  netmark::Result<int> ProcessOnce(observability::Trace* trace, int parent_span);

  uint64_t files_ingested() const { return handles_.inserted->value(); }
  uint64_t files_failed() const { return handles_.failed->value(); }
  bool running() const { return running_.load(); }
  DaemonCounters counters() const;

 private:
  /// Worker-stage product for one file, awaiting its turn at the writer.
  struct PreparedFile {
    netmark::Status status = netmark::Status::OK();
    xmlstore::PreparedDocument prepared;
  };

  /// Registry handles behind DaemonCounters (single source of truth).
  struct MetricHandles {
    observability::Counter* queued = nullptr;
    observability::Counter* converted = nullptr;
    observability::Counter* inserted = nullptr;
    observability::Counter* failed = nullptr;
    observability::Counter* deferred = nullptr;
    observability::Histogram* prepare_micros = nullptr;
    observability::Histogram* insert_micros = nullptr;
  };

  /// (Re-)resolves every metric handle against metrics_.
  void BindHandles();
  /// Resolved worker count (>= 1).
  int EffectiveWorkers() const;
  /// Enumerates the drop folder and applies the stability filter; returns
  /// eligible paths sorted by filename.
  std::vector<std::filesystem::path> CollectStable();
  /// Read + convert + flatten + tokenize one file (runs on workers).
  PreparedFile PrepareFile(const std::filesystem::path& path,
                           observability::Trace* trace, int parent_span);
  /// Commits one worker result and moves the source file (writer stage).
  bool CommitFile(const std::filesystem::path& path, PreparedFile result,
                  observability::Trace* trace, int parent_span);
  void Loop();

  xmlstore::XmlStore* store_;
  const convert::ConverterRegistry* converters_;
  DaemonOptions options_;
  std::mutex sweep_mu_;  // serializes ProcessOnce vs the polling thread

  // Signature of a possibly-still-being-written file seen last sweep
  // (guarded by sweep_mu_).
  struct FileSig {
    uintmax_t size = 0;
    std::filesystem::file_time_type mtime;
  };
  std::map<std::filesystem::path, FileSig> unstable_;

  /// Private fallback registry so a standalone daemon works unwired; the
  /// facade rebinds onto its own registry via BindMetrics().
  std::unique_ptr<observability::MetricsRegistry> owned_metrics_;
  observability::MetricsRegistry* metrics_ = nullptr;
  MetricHandles handles_;
  observability::TraceStore* trace_store_ = nullptr;

  std::atomic<bool> running_{false};
  std::thread thread_;
};

}  // namespace netmark::server

#endif  // NETMARK_SERVER_DAEMON_H_
