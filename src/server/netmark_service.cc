#include "server/netmark_service.h"

#include <algorithm>
#include <cstdio>

#include "common/build_info.h"
#include "common/clock.h"
#include "common/string_util.h"
#include "observability/thread_trace.h"
#include "observability/trace_context.h"
#include "server/daemon.h"
#include "xml/entities.h"
#include "xml/serializer.h"

namespace netmark::server {

namespace {

/// Minimal JSON string escaping for /healthz values.
std::string EscapeJson(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Maps storage-layer failures onto HTTP statuses (docs/durability.md): a
/// full disk is 507 Insufficient Storage, a degraded (read-only) store is
/// 503 + Retry-After, and detected corruption is a 500 that carries the
/// DataLoss detail so operators can tell rot from a plain server error.
HttpResponse StorageErrorResponse(const netmark::Status& status) {
  if (status.IsCapacityExceeded()) {
    HttpResponse resp = HttpResponse::Text(507, status.ToString());
    resp.reason = "Insufficient Storage";
    resp.headers["Retry-After"] = "30";
    return resp;
  }
  if (status.IsUnavailable()) {
    HttpResponse resp = HttpResponse::Text(503, status.ToString());
    resp.reason = "Service Unavailable";
    resp.headers["Retry-After"] = "10";
    return resp;
  }
  if (status.IsDataLoss()) {
    HttpResponse resp = HttpResponse::ServerError(status.ToString());
    resp.headers["X-Netmark-Data-Loss"] = "true";
    return resp;
  }
  return HttpResponse::ServerError(status.ToString());
}

}  // namespace

NetmarkService::NetmarkService(xmlstore::XmlStore* store)
    : store_(store),
      executor_(store),
      converters_(convert::ConverterRegistry::Default()),
      slow_query_ms_(observability::ResolveSlowQueryThresholdMs(
          observability::kDefaultSlowQueryMs)) {
  executor_.set_result_cache(&result_cache_);
  executor_.set_plan_cache(&plan_cache_);
  owned_metrics_ = std::make_unique<observability::MetricsRegistry>();
  metrics_ = owned_metrics_.get();
  BindHandles();
}

void NetmarkService::BindHandles() {
  request_micros_ = metrics_->GetHistogram("netmark_http_request_micros");
  query_latency_micros_ = metrics_->GetHistogram("netmark_query_latency_micros");
  route_counters_.clear();
  for (const char* route :
       {"/xdb", "/status", "/docs", "/metrics", "/healthz", "/traces", "other"}) {
    route_counters_[route] = metrics_->GetCounter("netmark_http_requests_total",
                                                  {{"route", route}});
  }
  // Constant-1 gauge whose labels carry the build identity — the standard
  // Prometheus idiom for joining any series against version/sha.
  metrics_->SetCallbackGauge("netmark_build_info",
                             {{"version", std::string(netmark::BuildVersion())},
                              {"git_sha", std::string(netmark::BuildGitSha())}},
                             [] { return 1.0; });
  executor_.BindMetrics(metrics_);
  result_cache_.BindMetrics(metrics_);
  plan_cache_.BindMetrics(metrics_);
  trace_store_.BindMetrics(metrics_);
}

void NetmarkService::BindMetrics(observability::MetricsRegistry* registry) {
  if (registry == nullptr || registry == metrics_) return;
  metrics_ = registry;
  BindHandles();
}

observability::Counter* NetmarkService::RouteCounter(
    const std::string& path) const {
  std::string route = "other";
  if (path == "/xdb" || path == "/status" || path == "/metrics" ||
      path == "/healthz" || path == "/traces") {
    route = path;
  } else if (path == "/docs" || netmark::StartsWith(path, "/docs/")) {
    route = "/docs";
  }
  auto it = route_counters_.find(route);
  return it == route_counters_.end() ? nullptr : it->second;
}

netmark::Status NetmarkService::RegisterStylesheet(const std::string& name,
                                                   std::string_view stylesheet_text) {
  NETMARK_ASSIGN_OR_RETURN(xslt::Stylesheet sheet,
                           xslt::Stylesheet::Parse(stylesheet_text));
  stylesheets_.insert_or_assign(name, std::move(sheet));
  return netmark::Status::OK();
}

HttpResponse NetmarkService::Handle(const HttpRequest& request) {
  observability::ScopedTimer timer(request_micros_);
  if (observability::Counter* counter = RouteCounter(request.path)) {
    counter->Increment();
  }
  return Dispatch(request);
}

HttpResponse NetmarkService::Dispatch(const HttpRequest& request) {
  const std::string& path = request.path;
  if (path == "/xdb") {
    if (request.method != "GET") return HttpResponse::Text(405, "GET only");
    return HandleXdb(request);
  }
  if (path == "/status") {
    if (request.method != "GET") return HttpResponse::Text(405, "GET only");
    return HandleStatus();
  }
  if (path == "/metrics") {
    if (request.method != "GET") return HttpResponse::Text(405, "GET only");
    return HandleMetrics();
  }
  if (path == "/healthz") {
    if (request.method != "GET") return HttpResponse::Text(405, "GET only");
    return HandleHealthz();
  }
  if (path == "/traces") {
    if (request.method != "GET") return HttpResponse::Text(405, "GET only");
    return HandleTraces(request);
  }
  if (path == "/docs" || path == "/docs/") {
    if (request.method == "GET") return HandleListDocuments(/*webdav=*/false);
    if (request.method == "PROPFIND") return HandleListDocuments(/*webdav=*/true);
    if (request.method == "PUT") {
      return HttpResponse::BadRequest("missing document name");
    }
    return HttpResponse::Text(405, "GET or PROPFIND");
  }
  if (netmark::StartsWith(path, "/docs/")) {
    std::string tail = path.substr(6);
    if (request.method == "PUT") {
      if (tail.empty()) return HttpResponse::BadRequest("missing document name");
      return HandlePutDocument(request, tail);
    }
    auto doc_id = netmark::ParseInt64(tail);
    if (!doc_id.ok()) {
      return HttpResponse::BadRequest("document id must be numeric: " + tail);
    }
    if (request.method == "GET") return HandleGetDocument(*doc_id);
    if (request.method == "DELETE") return HandleDeleteDocument(*doc_id);
    return HttpResponse::Text(405, "GET, PUT or DELETE");
  }
  return HttpResponse::NotFound("no route for " + path);
}

HttpResponse NetmarkService::HandleXdb(const HttpRequest& request) {
  auto query = query::ParseXdbQuery(request.query);
  if (!query.ok()) return HttpResponse::BadRequest(query.status().ToString());

  // Service-level parameters the XDB parser does not consume: `databank`
  // routes through the federation fan-out, `trace=1` appends the span tree.
  std::string databank;
  bool want_trace = false;
  for (const std::string& pair : netmark::Split(request.query, '&')) {
    size_t eq = pair.find('=');
    if (eq == std::string::npos) continue;
    std::string key = pair.substr(0, eq);
    auto value = netmark::UrlDecode(pair.substr(eq + 1));
    if (!value.ok()) continue;
    if (netmark::EqualsIgnoreCase(key, "databank")) {
      databank = *value;
    } else if (netmark::EqualsIgnoreCase(key, "trace")) {
      want_trace = (*value == "1" || netmark::EqualsIgnoreCase(*value, "true"));
    }
  }

  // An inbound W3C traceparent means a mediator upstream is already tracing
  // this request: adopt its id (so both processes' trace stores key the same
  // trace) and always build the span tree — the response carries it back in
  // a <trace> block for stitching.
  auto inbound =
      observability::ParseTraceparent(request.Header("traceparent"));
  const bool remote_child = inbound.has_value();

  // Head-sampling roll happens up front so the decision can gate span
  // bookkeeping entirely; tail rules (error / slow) still apply at Record
  // time whenever a trace exists for another reason.
  const bool sampled = trace_store_.ShouldSample();

  // One trace serves every consumer: the trace=1 response annotation, the
  // slow-query log, the upstream mediator's stitch, and the /traces ring.
  std::shared_ptr<observability::Trace> trace;
  if (want_trace || remote_child || sampled || slow_query_ms_ > 0) {
    trace = std::make_shared<observability::Trace>();
    trace->set_trace_id(remote_child ? inbound->trace_id
                                     : observability::GenerateTraceId());
  }
  const int64_t start_micros = netmark::MonotonicMicros();
  observability::ScopedSpan root(trace.get(), "xdb");
  root.Annotate("query", request.query);
  if (remote_child) root.Annotate("caller_span", inbound->span_id);
  // Synthetic spans for time already spent before this handler ran: the
  // accept-queue wait and HTTP parsing, measured by the server loop.
  if (trace != nullptr && request.queue_wait_micros > 0) {
    trace->AddCompletedSpan("queue_wait", root.id(), request.queue_wait_micros);
  }
  if (trace != nullptr && request.parse_micros > 0) {
    trace->AddCompletedSpan("parse", root.id(), request.parse_micros);
  }

  // Every return funnels through here so the trace id header, the retention
  // decision, the exemplar and the slow-query log cover error paths too —
  // a 500 with X-Netmark-Data-Loss is exactly the response whose trace id
  // an operator wants to chase.
  auto finish = [&](HttpResponse resp) {
    const int64_t total = netmark::MonotonicMicros() - start_micros;
    bool retained = false;
    if (trace != nullptr) {
      resp.headers["X-Netmark-Trace-Id"] = trace->trace_id();
      retained = trace_store_.Record(trace, sampled, resp.status >= 500);
      observability::MaybeLogSlowQuery("/xdb", request.query, total,
                                       slow_query_ms_, *trace);
    }
    if (query_latency_micros_ != nullptr) {
      // Exemplars only reference retained traces — a bucket link that 404s
      // on /traces?id= would be worse than none.
      if (retained) {
        query_latency_micros_->ObserveWithExemplar(total, trace->trace_id());
      } else {
        query_latency_micros_->Observe(total);
      }
    }
    return resp;
  };

  xml::Document results;
  if (!databank.empty()) {
    if (router_ == nullptr) {
      root.End(false, "no databank router");
      return finish(HttpResponse::BadRequest("this instance has no databank router"));
    }
    auto federated = router_->QueryFederated(databank, *query, trace, root.id());
    if (!federated.ok()) {
      root.End(false, federated.status().ToString());
      return finish(HttpResponse::ServerError(federated.status().ToString()));
    }
    root.Annotate("hits", std::to_string(federated->hits.size()));
    observability::ScopedSpan compose_span(trace.get(), "compose", root.id());
    results = ComposeFederatedResults(*query, *federated);
  } else {
    observability::ScopedSpan exec_span(trace.get(), "execute", root.id());
    query::QueryExecutor::Stats exec_stats;
    netmark::Result<std::vector<query::QueryHit>> hits = [&] {
      // Bind the trace to this thread so layers below the executor's API
      // (result-cache probe, storage) can attach spans under "execute".
      observability::ThreadTraceScope thread_trace(trace.get(), exec_span.id());
      return executor_.Execute(*query, &exec_stats);
    }();
    // Tag the trace (and thereby any slow-query log line) with the cache
    // outcome, so a slow miss is attributable at a glance.
    root.Annotate("cache", exec_stats.cache_hits > 0 ? "hit" : "miss");
    if (!hits.ok()) {
      exec_span.End(false, hits.status().ToString());
      root.End(false, hits.status().ToString());
      if (hits.status().IsInvalidArgument()) {
        return finish(HttpResponse::BadRequest(hits.status().ToString()));
      }
      return finish(StorageErrorResponse(hits.status()));
    }
    exec_span.Annotate("hits", std::to_string(hits->size()));
    exec_span.End();
    root.Annotate("hits", std::to_string(hits->size()));
    observability::ScopedSpan compose_span(trace.get(), "compose", root.id());
    results = query::Encode(
        query::ComposeResultSet(*query, *hits, exec_stats.quarantined_skips));
  }

  root.End();
  if ((want_trace || remote_child) && trace != nullptr) {
    xml::NodeId results_el = results.DocumentElement();
    if (results_el != xml::kInvalidNode) {
      query::AppendTraceElement(results, results_el, trace->Snapshot());
    }
  }

  // The serialize span lands after root ends, so it shows up in the stored
  // trace and slow logs but not in this response's own <trace> block.
  observability::ScopedSpan serialize_span(trace.get(), "serialize", root.id());
  auto body = RenderResults(results, query->xslt);
  if (!body.ok()) {
    serialize_span.End(false, body.status().ToString());
    return finish(HttpResponse::ServerError(body.status().ToString()));
  }
  serialize_span.Annotate("bytes", std::to_string(body->size()));
  serialize_span.End();
  return finish(HttpResponse::Ok(std::move(*body)));
}

HttpResponse NetmarkService::HandleMetrics() {
  return HttpResponse::Ok(metrics_->RenderPrometheus(),
                          "text/plain; version=0.0.4; charset=utf-8");
}

HttpResponse NetmarkService::HandleHealthz() {
  // Snapshot for the store/storage figures below (counts, WAL size) so a
  // concurrent commit or checkpoint cannot be observed half-applied.
  xmlstore::XmlStore::ReadSnapshot snapshot = store_->BeginRead();
  // Degraded = any open breaker (a federated source is being skipped) or a
  // read-only store (a disk fault stopped mutations). Still HTTP 200 — the
  // instance itself answers; "status" carries the nuance.
  bool degraded = false;
  std::string breakers = "[";
  if (router_ != nullptr) {
    bool first = true;
    for (const std::string& name : router_->SourceNames()) {
      federation::CircuitBreaker* breaker = router_->GetBreaker(name);
      if (breaker == nullptr) continue;
      auto state = breaker->state(netmark::MonotonicMicros());
      if (state == federation::CircuitBreaker::State::kOpen) degraded = true;
      if (!first) breakers += ",";
      first = false;
      breakers += "{\"source\":\"" + EscapeJson(name) + "\",\"state\":\"" +
                  std::string(federation::CircuitStateToString(state)) +
                  "\",\"consecutive_failures\":" +
                  std::to_string(breaker->consecutive_failures()) + "}";
    }
  }
  breakers += "]";

  std::string daemon_json = "null";
  if (daemon_ != nullptr) {
    DaemonCounters c = daemon_->counters();
    daemon_json = std::string("{\"running\":") +
                  (daemon_->running() ? "true" : "false") +
                  ",\"queued\":" + std::to_string(c.queued) +
                  ",\"converted\":" + std::to_string(c.converted) +
                  ",\"inserted\":" + std::to_string(c.inserted) +
                  ",\"failed\":" + std::to_string(c.failed) +
                  ",\"deferred\":" + std::to_string(c.deferred) + "}";
  }

  const storage::Database* db = store_->database();
  const storage::RecoveryStats& rec = db->recovery_stats();
  // Disk-fault posture: read-only degradation and the quarantine inventory
  // (checksum-failed pages and the documents they took with them).
  bool store_degraded = store_->degraded();
  if (store_degraded) degraded = true;
  std::string quarantine_json =
      std::string("{\"pages\":") + std::to_string(store_->quarantined_pages()) +
      ",\"docs\":" + std::to_string(store_->quarantined_doc_count()) +
      ",\"scrub_pages_scanned\":" + std::to_string(store_->scrub_pages_scanned()) +
      ",\"scrub_errors_found\":" + std::to_string(store_->scrub_errors_found()) +
      ",\"scrub_passes\":" + std::to_string(store_->scrub_passes()) + "}";
  std::string storage_json =
      std::string("{\"wal_size_bytes\":") +
      std::to_string(db->wal()->size_bytes()) +
      ",\"last_checkpoint_lsn\":" + std::to_string(db->last_checkpoint_lsn()) +
      ",\"checkpoints\":" + std::to_string(db->checkpoints()) +
      ",\"degraded\":" + (store_degraded ? "true" : "false") +
      ",\"degraded_reason\":\"" + EscapeJson(store_->degraded_reason()) + "\"" +
      // MVCC version lifecycle (docs/mvcc.md): how much history the pager is
      // holding, the GC watermark, and total reclaim work done.
      ",\"mvcc\":{\"epoch\":" + std::to_string(store_->commit_epoch()) +
      ",\"versions_retained\":" +
      std::to_string(store_->mvcc_versions_retained()) +
      ",\"oldest_pinned_epoch\":" +
      std::to_string(store_->OldestPinnedEpoch()) +
      ",\"gc_reclaimed_total\":" +
      std::to_string(store_->mvcc_versions_reclaimed()) + "}" +
      ",\"quarantine\":" + quarantine_json +
      ",\"recovery\":{\"performed\":" + (rec.performed ? "true" : "false") +
      ",\"committed_txns\":" + std::to_string(rec.committed_txns) +
      ",\"uncommitted_txns\":" + std::to_string(rec.uncommitted_txns) +
      ",\"pages_applied\":" + std::to_string(rec.pages_applied) +
      ",\"torn_tail\":" + (rec.torn_tail ? "true" : "false") +
      ",\"micros\":" + std::to_string(rec.micros) + "}}";

  query::QueryResultCache::Snapshot cache = result_cache_.snapshot();
  query::QueryPlanCache::Snapshot plans = plan_cache_.snapshot();
  char ratio[32];
  std::snprintf(ratio, sizeof(ratio), "%.4f", cache.hit_ratio);
  std::string cache_json =
      std::string("{\"enabled\":") + (result_cache_.enabled() ? "true" : "false") +
      ",\"entries\":" + std::to_string(cache.entries) +
      ",\"bytes\":" + std::to_string(cache.bytes) +
      ",\"hits\":" + std::to_string(cache.hits) +
      ",\"misses\":" + std::to_string(cache.misses) +
      ",\"evictions\":" + std::to_string(cache.evictions) +
      ",\"hit_ratio\":" + ratio +
      ",\"plan_entries\":" + std::to_string(plans.entries) +
      ",\"plan_hits\":" + std::to_string(plans.hits) +
      ",\"plan_misses\":" + std::to_string(plans.misses) + "}";

  std::string body = std::string("{\"status\":\"") +
                     (degraded ? "degraded" : "ok") + "\"," +
                     "\"build\":{\"version\":\"" +
                     EscapeJson(netmark::BuildVersion()) + "\",\"git_sha\":\"" +
                     EscapeJson(netmark::BuildGitSha()) + "\"}," +
                     "\"store\":{\"documents\":" +
                     std::to_string(store_->document_count()) +
                     ",\"nodes\":" + std::to_string(store_->node_count()) +
                     ",\"terms\":" +
                     std::to_string(store_->text_index().num_terms()) + "}," +
                     "\"query_cache\":" + cache_json + "," +
                     "\"storage\":" + storage_json + "," +
                     "\"daemon\":" + daemon_json + "," +
                     "\"breakers\":" + breakers + "}";
  return HttpResponse::Ok(std::move(body), "application/json");
}

HttpResponse NetmarkService::HandleTraces(const HttpRequest& request) {
  std::string id;
  std::string format;
  for (const std::string& pair : netmark::Split(request.query, '&')) {
    size_t eq = pair.find('=');
    if (eq == std::string::npos) continue;
    std::string key = pair.substr(0, eq);
    auto value = netmark::UrlDecode(pair.substr(eq + 1));
    if (!value.ok()) continue;
    if (netmark::EqualsIgnoreCase(key, "id")) {
      id = *value;
    } else if (netmark::EqualsIgnoreCase(key, "format")) {
      format = *value;
    }
  }

  if (id.empty()) {
    char rate[32];
    std::snprintf(rate, sizeof(rate), "%.4f", trace_store_.sample_rate());
    std::string body = std::string("{\"sample_rate\":") + rate +
                       ",\"retained\":" + std::to_string(trace_store_.size()) +
                       ",\"traces\":[";
    bool first = true;
    for (const observability::TraceSummary& t : trace_store_.List()) {
      if (!first) body += ",";
      first = false;
      body += "{\"id\":\"" + EscapeJson(t.id) + "\",\"root\":\"" +
              EscapeJson(t.root) +
              "\",\"duration_us\":" + std::to_string(t.duration_micros) +
              ",\"ok\":" + (t.ok ? "true" : "false") +
              ",\"error\":" + (t.error ? "true" : "false") +
              ",\"slow\":" + (t.slow ? "true" : "false") +
              ",\"wall_seconds\":" + std::to_string(t.wall_seconds) + "}";
    }
    body += "]}";
    return HttpResponse::Ok(std::move(body), "application/json");
  }

  std::shared_ptr<observability::Trace> trace = trace_store_.Find(id);
  if (trace == nullptr) {
    return HttpResponse::NotFound("no retained trace with id " + id);
  }
  const std::vector<observability::SpanData> spans = trace->Snapshot();

  if (netmark::EqualsIgnoreCase(format, "xml")) {
    // The same <trace> block the trace=1 annotation emits, standalone — the
    // `netmark traces` CLI renders its flame view from this.
    xml::Document doc;
    xml::NodeId root = doc.CreateElement("netmark-trace");
    doc.AddAttribute(root, "id", id);
    doc.AppendChild(doc.root(), root);
    query::AppendTraceElement(doc, root, spans);
    return HttpResponse::Ok(xml::Serialize(doc));
  }

  std::string body = "{\"id\":\"" + EscapeJson(id) + "\",\"spans\":[";
  bool first = true;
  for (const observability::SpanData& span : spans) {
    if (!first) body += ",";
    first = false;
    body += "{\"id\":" + std::to_string(span.id) +
            ",\"parent\":" + std::to_string(span.parent) + ",\"name\":\"" +
            EscapeJson(span.name) +
            "\",\"us\":" + std::to_string(span.duration_micros()) +
            ",\"ok\":" + (span.ok ? "true" : "false") +
            ",\"unfinished\":" + (span.finished() ? "false" : "true") +
            ",\"remote\":" + (span.remote ? "true" : "false");
    if (!span.note.empty()) body += ",\"note\":\"" + EscapeJson(span.note) + "\"";
    if (!span.annotations.empty()) {
      body += ",\"annotations\":[";
      bool first_ann = true;
      for (const auto& [key, value] : span.annotations) {
        if (!first_ann) body += ",";
        first_ann = false;
        body += "{\"key\":\"" + EscapeJson(key) + "\",\"value\":\"" +
                EscapeJson(value) + "\"}";
      }
      body += "]";
    }
    body += "}";
  }
  body += "]}";
  return HttpResponse::Ok(std::move(body), "application/json");
}

netmark::Result<std::string> NetmarkService::RenderResults(
    const xml::Document& results, const std::string& xslt_name) {
  if (xslt_name.empty()) {
    return xml::Serialize(results);
  }
  auto it = stylesheets_.find(xslt_name);
  if (it == stylesheets_.end()) {
    return netmark::Status::NotFound("no stylesheet named " + xslt_name);
  }
  NETMARK_ASSIGN_OR_RETURN(xml::Document transformed,
                           xslt::Transform(it->second, results));
  return xml::Serialize(transformed);
}

HttpResponse NetmarkService::HandlePutDocument(const HttpRequest& request,
                                               const std::string& file_name) {
  auto doc = converters_.Convert(file_name, request.body);
  if (!doc.ok()) return HttpResponse::BadRequest(doc.status().ToString());
  // WebDAV PUT semantics ("collaboratively edit and manage files", paper
  // §2.1.2): putting to an existing name replaces that document.
  bool replaced = false;
  auto existing = ([this] {
    xmlstore::XmlStore::ReadSnapshot snapshot = store_->BeginRead();
    return store_->ListDocuments();
  })();
  if (existing.ok()) {
    for (const xmlstore::DocRecord& rec : *existing) {
      if (rec.file_name == file_name) {
        netmark::Status st = store_->DeleteDocument(rec.doc_id);
        // A concurrent PUT/DELETE may have removed it between the listing
        // and now; the replace still proceeds.
        if (st.IsNotFound()) continue;
        if (!st.ok()) return StorageErrorResponse(st);
        replaced = true;
      }
    }
  }
  xmlstore::DocumentInfo info;
  info.file_name = file_name;
  info.file_date = netmark::WallSeconds();
  info.file_size = static_cast<int64_t>(request.body.size());
  auto doc_id = store_->InsertDocument(*doc, info);
  if (!doc_id.ok()) return StorageErrorResponse(doc_id.status());
  HttpResponse resp =
      replaced ? HttpResponse::Text(204, "") : HttpResponse::Text(201, std::to_string(*doc_id));
  resp.headers["Location"] = "/docs/" + std::to_string(*doc_id);
  return resp;
}

HttpResponse NetmarkService::HandleGetDocument(int64_t doc_id) {
  xmlstore::XmlStore::ReadSnapshot snapshot = store_->BeginRead();
  auto doc = store_->Reconstruct(doc_id);
  if (!doc.ok()) {
    if (doc.status().IsNotFound()) return HttpResponse::NotFound(doc.status().message());
    if (doc.status().IsDataLoss()) store_->NoteQuarantinedDoc(doc_id);
    return StorageErrorResponse(doc.status());
  }
  xml::SerializeOptions opts;
  opts.declaration = true;
  return HttpResponse::Ok(xml::Serialize(*doc, opts));
}

HttpResponse NetmarkService::HandleDeleteDocument(int64_t doc_id) {
  netmark::Status st = store_->DeleteDocument(doc_id);
  if (st.IsNotFound()) return HttpResponse::NotFound(st.message());
  if (!st.ok()) return StorageErrorResponse(st);
  return HttpResponse::Text(204, "");
}

HttpResponse NetmarkService::HandleListDocuments(bool webdav) {
  xmlstore::XmlStore::ReadSnapshot snapshot = store_->BeginRead();
  auto docs = store_->ListDocuments();
  if (!docs.ok()) return HttpResponse::ServerError(docs.status().ToString());
  std::string body;
  if (webdav) {
    body = "<?xml version=\"1.0\"?><D:multistatus xmlns:D=\"DAV:\">";
    for (const xmlstore::DocRecord& doc : *docs) {
      body += "<D:response><D:href>/docs/" + std::to_string(doc.doc_id) +
              "</D:href><D:propstat><D:prop><D:displayname>" +
              xml::EscapeText(doc.file_name) +
              "</D:displayname><D:getcontentlength>" + std::to_string(doc.file_size) +
              "</D:getcontentlength></D:prop>"
              "<D:status>HTTP/1.1 200 OK</D:status></D:propstat></D:response>";
    }
    body += "</D:multistatus>";
    HttpResponse resp = HttpResponse::Text(207, std::move(body));
    resp.headers["Content-Type"] = "text/xml";
    return resp;
  }
  body = "<documents>";
  for (const xmlstore::DocRecord& doc : *docs) {
    body += "<doc id=\"" + std::to_string(doc.doc_id) + "\" name=\"" +
            xml::EscapeAttribute(doc.file_name) + "\" size=\"" +
            std::to_string(doc.file_size) + "\"/>";
  }
  body += "</documents>";
  return HttpResponse::Ok(std::move(body));
}

HttpResponse NetmarkService::HandleStatus() {
  xmlstore::XmlStore::ReadSnapshot snapshot = store_->BeginRead();
  std::string body = "<status><documents>" + std::to_string(store_->document_count()) +
                     "</documents><nodes>" + std::to_string(store_->node_count()) +
                     "</nodes><terms>" +
                     std::to_string(store_->text_index().num_terms()) + "</terms>" +
                     "</status>";
  return HttpResponse::Ok(std::move(body));
}

xml::Document ComposeFederatedResults(const query::XdbQuery& /*query*/,
                                      const federation::FederatedResult& result) {
  return query::Encode(result);
}

}  // namespace netmark::server
