// A NETMARK instance as the benchmark runs it: shipped defaults, a corpus
// loaded through a drop-folder daemon sweep, the HTTP server on an
// ephemeral loopback port. Setup is what `setup_s` times.

#ifndef NETMARK_E2E_INSTANCE_H_
#define NETMARK_E2E_INSTANCE_H_

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/netmark.h"
#include "federation/content_only_source.h"
#include "federation/router.h"
#include "query/plan.h"
#include "query/result_cache.h"
#include "server/daemon.h"
#include "server/http_client.h"
#include "workload/corpus.h"

namespace e2e {

struct Instance {
  std::filesystem::path dir;
  std::filesystem::path drop;
  std::unique_ptr<netmark::Netmark> nm;
  /// Drives drop-folder sweeps synchronously (ProcessOnce) on nm's store
  /// and metrics registry. Declared after nm: destroyed first.
  std::unique_ptr<netmark::server::IngestionDaemon> daemon;
  uint16_t port = 0;
  // Federated mediators only: the remote instance's port, the transport of
  // the remote source (for its connection-pool counters; owned by the
  // router) and the content-only source.
  uint16_t remote_port = 0;
  const netmark::server::SocketTransport* remote_transport = nullptr;
  std::shared_ptr<netmark::federation::ContentOnlySource> lessons;
  /// Seconds the timed part of Start took.
  double setup_seconds = 0;

  ~Instance();
};

/// Writes `docs` into `drop` (untimed input preparation).
void WriteDropFiles(const std::filesystem::path& drop,
                    const std::vector<netmark::workload::GeneratedDoc>& docs);

/// Opens a store on the empty directory `dir`, sweeps the files already in
/// `dir/drop` through the daemon, registers `xslt=report` and starts the
/// server. Dies unless every dropped file was ingested.
std::unique_ptr<Instance> StartInstance(const std::filesystem::path& dir,
                                        size_t expected_docs);

/// Turns `mediator` into the federated workload's mediator: a databank of
/// its own store, `remote` through RemoteSource over loopback HTTP, and a
/// content-only LessonsLearned source (which forces augmentation). Timed
/// into mediator->setup_seconds.
void AttachFederation(Instance* mediator, const Instance& remote, uint64_t seed);

/// A router apart from the mediator's own, with the same databank: its own
/// LocalStoreSource on the mediator's store using `results` and `plans`
/// (null: none), the remote instance over a connection of its own, and the
/// mediator's content-only source. The reference answers and the traced
/// replay go through such routers, so they neither read nor warm the caches
/// the HTTP phases use.
std::unique_ptr<netmark::federation::Router> MakeDatabankRouter(
    const Instance& mediator, netmark::query::QueryResultCache* results,
    netmark::query::QueryPlanCache* plans);

/// Bytes of every regular file under `dir`.
uint64_t DirectoryBytes(const std::filesystem::path& dir);

}  // namespace e2e

#endif  // NETMARK_E2E_INSTANCE_H_
