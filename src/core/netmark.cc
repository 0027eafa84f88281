#include "core/netmark.h"

#include "common/clock.h"
#include "common/temp_dir.h"
#include "federation/local_source.h"
#include "xml/serializer.h"

namespace netmark {

Result<std::unique_ptr<Netmark>> Netmark::Open(const NetmarkOptions& options) {
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("NetmarkOptions.data_dir must be set");
  }
  std::unique_ptr<Netmark> nm(new Netmark(options));
  NETMARK_ASSIGN_OR_RETURN(nm->store_,
                           xmlstore::XmlStore::Open(options.data_dir, options.node_types,
                                                    options.storage));
  // One registry for the whole instance: store, router, service, executor
  // and daemon all re-home their metrics here, so GET /metrics sees
  // everything.
  nm->store_->BindMetrics(nm->metrics_.get());
  nm->router_.BindMetrics(nm->metrics_.get());
  nm->service_ = std::make_unique<server::NetmarkService>(nm->store_.get());
  nm->service_->set_router(&nm->router_);
  nm->service_->BindMetrics(nm->metrics_.get());
  nm->service_->set_slow_query_ms(options.slow_query_ms);
  nm->service_->ConfigureQueryCache(options.query_cache, options.plan_cache);
  nm->service_->ConfigureTracing(options.trace_store);
  return nm;
}

Netmark::~Netmark() {
  StopDaemon();
  StopServer();
}

Result<int64_t> Netmark::IngestFile(const std::filesystem::path& path) {
  NETMARK_ASSIGN_OR_RETURN(std::string content, ReadFile(path));
  return IngestContent(path.filename().string(), content);
}

Result<int64_t> Netmark::IngestContent(const std::string& file_name,
                                       std::string_view content) {
  NETMARK_ASSIGN_OR_RETURN(xml::Document doc, converters_.Convert(file_name, content));
  xmlstore::DocumentInfo info;
  info.file_name = file_name;
  info.file_date = WallSeconds();
  info.file_size = static_cast<int64_t>(content.size());
  return store_->InsertDocument(doc, info);
}

// The service's executor: its caches and metrics are the instance's.
Result<std::vector<query::QueryHit>> Netmark::Query(const std::string& query_string) {
  NETMARK_ASSIGN_OR_RETURN(query::XdbQuery q, query::ParseXdbQuery(query_string));
  return service_->executor().Execute(q);
}

Result<xml::Document> Netmark::ComposeQuery(const std::string& query_string) {
  NETMARK_ASSIGN_OR_RETURN(query::XdbQuery q, query::ParseXdbQuery(query_string));
  query::QueryExecutor::Stats stats;
  NETMARK_ASSIGN_OR_RETURN(std::vector<query::QueryHit> hits,
                           service_->executor().Execute(q, &stats));
  return query::Encode(query::ComposeResultSet(q, hits, stats.quarantined_skips));
}

Result<std::string> Netmark::QueryToXml(const std::string& query_string) {
  NETMARK_ASSIGN_OR_RETURN(xml::Document results, ComposeQuery(query_string));
  return xml::Serialize(results);
}

Result<std::string> Netmark::QueryAndTransform(const std::string& query_string,
                                               std::string_view stylesheet_text) {
  NETMARK_ASSIGN_OR_RETURN(xml::Document results, ComposeQuery(query_string));
  NETMARK_ASSIGN_OR_RETURN(xml::Document transformed,
                           xslt::Transform(stylesheet_text, results));
  return xml::Serialize(transformed);
}

Result<std::string> Netmark::GetDocumentXml(int64_t doc_id) const {
  NETMARK_ASSIGN_OR_RETURN(xml::Document doc, store_->Reconstruct(doc_id));
  return xml::Serialize(doc);
}

Status Netmark::DeleteDocument(int64_t doc_id) { return store_->DeleteDocument(doc_id); }

Result<std::vector<xmlstore::DocRecord>> Netmark::ListDocuments() const {
  return store_->ListDocuments();
}

Status Netmark::RegisterSelfAsSource(const std::string& source_name) {
  auto source =
      std::make_shared<federation::LocalStoreSource>(source_name, store_.get());
  source->BindMetrics(metrics_.get());
  // The self-source wraps the same store, so sharing the service's
  // epoch-keyed result cache is safe (and lets /xdb and databank queries
  // feed one another's entries).
  source->set_caches(service_->result_cache(), service_->plan_cache());
  return router_.RegisterSource(std::move(source));
}

Status Netmark::RegisterSource(std::shared_ptr<federation::Source> source) {
  return router_.RegisterSource(std::move(source));
}

Status Netmark::DefineDatabank(const std::string& name,
                               std::vector<std::string> source_names) {
  return router_.DefineDatabank(name, std::move(source_names));
}

Result<federation::FederatedResult> Netmark::QueryDatabankFederated(
    const std::string& databank, const std::string& query_string) {
  NETMARK_ASSIGN_OR_RETURN(query::XdbQuery q, query::ParseXdbQuery(query_string));
  return router_.QueryFederated(databank, q);
}

Status Netmark::StartServer(uint16_t port) {
  if (http_server_ != nullptr) return Status::AlreadyExists("server already started");
  http_server_ = std::make_unique<server::HttpServer>(
      [this](const server::HttpRequest& req) { return service_->Handle(req); },
      options_.http_server);
  http_server_->BindMetrics(metrics_.get());
  Status st = http_server_->Start(port);
  if (!st.ok()) http_server_.reset();
  return st;
}

void Netmark::StopServer() {
  if (http_server_ != nullptr) {
    http_server_->Stop();
    http_server_.reset();
  }
}

uint16_t Netmark::server_port() const {
  return http_server_ == nullptr ? 0 : http_server_->port();
}

Status Netmark::RegisterStylesheet(const std::string& name, std::string_view text) {
  return service_->RegisterStylesheet(name, text);
}

Status Netmark::StartDaemon(const std::filesystem::path& drop_dir) {
  server::DaemonOptions opts;
  opts.drop_dir = drop_dir;
  return StartDaemon(std::move(opts));
}

Status Netmark::StartDaemon(server::DaemonOptions opts) {
  if (daemon_ != nullptr) return Status::AlreadyExists("daemon already started");
  if (opts.drop_dir.empty()) {
    return Status::InvalidArgument("DaemonOptions.drop_dir must be set");
  }
  daemon_ = std::make_unique<server::IngestionDaemon>(store_.get(), &converters_,
                                                      std::move(opts));
  daemon_->BindMetrics(metrics_.get());
  // Background sweeps share the service's trace ring, so GET /traces covers
  // ingestion as well as queries.
  daemon_->set_trace_store(service_->trace_store());
  service_->set_daemon(daemon_.get());
  Status st = daemon_->Start();
  if (!st.ok()) {
    service_->set_daemon(nullptr);
    daemon_.reset();
  }
  return st;
}

void Netmark::StopDaemon() {
  if (daemon_ != nullptr) {
    daemon_->Stop();
    if (service_ != nullptr) service_->set_daemon(nullptr);
    daemon_.reset();
  }
}

Result<int> Netmark::ProcessDropFolderOnce() {
  if (daemon_ == nullptr) {
    return Status::InvalidArgument("daemon not started (StartDaemon first)");
  }
  return daemon_->ProcessOnce();
}

}  // namespace netmark
