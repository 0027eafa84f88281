// The NETMARK HTTP service: XDB queries, WebDAV-lite document authoring, and
// XSLT result composition behind "simple HTTP requests" (paper §2.1.2-2.1.3).
//
// Routes:
//   GET      /xdb?Context=..&Content=..[&xslt=name][&databank=name][&limit=n]
//                                       [&trace=1]  append the span tree
//   PUT      /docs/<file-name>          ingest a document (any format)
//   GET      /docs/<doc-id>             reconstructed document XML
//   DELETE   /docs/<doc-id>
//   GET      /docs                      document listing (XML)
//   PROPFIND /docs                      WebDAV-style multistatus listing
//   GET      /status                    store statistics
//   GET      /metrics                   Prometheus text exposition
//   GET      /healthz                   JSON health (store/daemon/breakers)
//   GET      /traces                    retained-trace listing (JSON)
//   GET      /traces?id=<trace-id>      one span tree (JSON; &format=xml for
//                                       the <trace> block the CLI renders)
//
// Observability (docs/observability.md): every request bumps
// netmark_http_requests_total{route=} and observes
// netmark_http_request_micros; /xdb additionally observes
// netmark_query_latency_micros and — when the request exceeds the slow-query
// threshold — emits one structured slow_query log line with per-span
// timings. Distributed tracing: every /xdb request rolls the TraceStore's
// head sampler, adopts an inbound W3C `traceparent` id (returning its span
// subtree in the response's <trace> block for cross-hop stitching), and
// echoes the trace id in an X-Netmark-Trace-Id response header.

#ifndef NETMARK_SERVER_NETMARK_SERVICE_H_
#define NETMARK_SERVER_NETMARK_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "convert/registry.h"
#include "federation/router.h"
#include "observability/metrics.h"
#include "observability/slow_log.h"
#include "observability/trace.h"
#include "observability/trace_store.h"
#include "query/compose.h"
#include "query/executor.h"
#include "query/plan.h"
#include "query/result_cache.h"
#include "server/http_message.h"
#include "xmlstore/xml_store.h"
#include "xslt/stylesheet.h"

namespace netmark::server {

class IngestionDaemon;

/// \brief Request router for one NETMARK instance.
class NetmarkService {
 public:
  explicit NetmarkService(xmlstore::XmlStore* store);

  /// Optional: enable `databank=` fan-out queries.
  void set_router(federation::Router* router) { router_ = router; }
  /// Optional: report the ingestion daemon's state on /healthz.
  void set_daemon(IngestionDaemon* daemon) { daemon_ = daemon; }

  /// Re-homes the service's metrics (request counters, latency histograms)
  /// onto `registry` — which is then also what GET /metrics renders. Must be
  /// called before traffic. Also instruments the local query executor.
  void BindMetrics(observability::MetricsRegistry* registry);
  observability::MetricsRegistry* metrics() const { return metrics_; }

  /// Configures the slow-query threshold (ms; 0 disables). The
  /// NETMARK_SLOW_QUERY_MS env var always wins over this value.
  void set_slow_query_ms(int64_t ms) {
    slow_query_ms_ = observability::ResolveSlowQueryThresholdMs(ms);
  }
  int64_t slow_query_ms() const { return slow_query_ms_; }

  /// Registers a stylesheet for `xslt=` result composition.
  netmark::Status RegisterStylesheet(const std::string& name,
                                     std::string_view stylesheet_text);

  /// The service-owned read-path caches (docs/query_cache.md). The facade
  /// shares these with its ad-hoc executors and the self-registered
  /// federation source; /healthz reports their state. The result cache is
  /// bound to this service's store — never share it with another store.
  query::QueryResultCache* result_cache() { return &result_cache_; }
  query::QueryPlanCache* plan_cache() { return &plan_cache_; }
  /// The executor /xdb runs, wired to these caches and the metrics.
  const query::QueryExecutor& executor() const { return executor_; }

  /// Applies the `[query]` INI knobs (cache_entries / cache_bytes /
  /// cache_enabled). Clears both caches; call before traffic.
  void ConfigureQueryCache(const query::ResultCacheOptions& results,
                           const query::QueryPlanCache::Options& plans) {
    result_cache_.Configure(results);
    plan_cache_.Configure(plans);
  }

  /// Applies the `[observability]` INI knobs (trace_sample_rate,
  /// trace_store_capacity, trace_slow_keep_ms). Call before traffic.
  void ConfigureTracing(const observability::TraceStoreOptions& options) {
    trace_store_.Configure(options);
  }

  /// The retained-trace ring backing GET /traces; the facade shares it with
  /// the ingestion daemon so sampled sweep traces land there too.
  observability::TraceStore* trace_store() { return &trace_store_; }

  /// Dispatches one request. Thread-safe for concurrent requests (the
  /// worker-pool server calls it from many threads): store reads run under
  /// an XmlStore::ReadSnapshot, so every response reflects one committed
  /// state even with ingestion or checkpointing in flight. Configuration
  /// (set_router, RegisterStylesheet, BindMetrics, ...) must still finish
  /// before traffic starts.
  HttpResponse Handle(const HttpRequest& request);

  xmlstore::XmlStore* store() { return store_; }

 private:
  HttpResponse Dispatch(const HttpRequest& request);
  HttpResponse HandleXdb(const HttpRequest& request);
  HttpResponse HandlePutDocument(const HttpRequest& request,
                                 const std::string& file_name);
  HttpResponse HandleGetDocument(int64_t doc_id);
  HttpResponse HandleDeleteDocument(int64_t doc_id);
  HttpResponse HandleListDocuments(bool webdav);
  HttpResponse HandleStatus();
  HttpResponse HandleMetrics();
  HttpResponse HandleHealthz();
  HttpResponse HandleTraces(const HttpRequest& request);

  /// Applies the named stylesheet (if any) and serializes.
  netmark::Result<std::string> RenderResults(const xml::Document& results,
                                             const std::string& xslt_name);

  /// (Re-)resolves metric handles against metrics_.
  void BindHandles();
  /// The pre-registered request counter for `path` ("other" if unknown).
  observability::Counter* RouteCounter(const std::string& path) const;

  xmlstore::XmlStore* store_;
  /// Declared before executor_ (which holds raw pointers into both).
  query::QueryResultCache result_cache_;
  query::QueryPlanCache plan_cache_;
  query::QueryExecutor executor_;
  convert::ConverterRegistry converters_;
  federation::Router* router_ = nullptr;
  IngestionDaemon* daemon_ = nullptr;
  std::map<std::string, xslt::Stylesheet> stylesheets_;
  observability::TraceStore trace_store_;

  /// Private fallback registry (BindMetrics re-homes onto the facade's).
  std::unique_ptr<observability::MetricsRegistry> owned_metrics_;
  observability::MetricsRegistry* metrics_ = nullptr;
  observability::Histogram* request_micros_ = nullptr;
  observability::Histogram* query_latency_micros_ = nullptr;
  /// Pre-registered per-route request counters (read-only after bind).
  std::map<std::string, observability::Counter*> route_counters_;
  int64_t slow_query_ms_ = 0;
};

/// \brief The `<results>` document of a federated query: query::Encode of
/// the router's merged answer, whose `<sources>` block reports each source's
/// outcome (ok / partial / timed-out / failed / breaker-open), attempts and
/// latency — callers always learn what they did NOT get. `result` already
/// carries the canonical string of the query it answers, so `query` is not
/// read.
xml::Document ComposeFederatedResults(const query::XdbQuery& query,
                                      const federation::FederatedResult& result);

}  // namespace netmark::server

#endif  // NETMARK_SERVER_NETMARK_SERVICE_H_
