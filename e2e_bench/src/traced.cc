#include "traced.h"

#include <algorithm>
#include <map>

#include "convert/registry.h"
#include "query/compose.h"
#include "query/executor.h"
#include "query/plan.h"
#include "query/result_cache.h"
#include "query/xdb_query.h"
#include "server/http_message.h"
#include "server/netmark_service.h"
#include "spans.h"
#include "textindex/tokenizer.h"
#include "xml/serializer.h"
#include "xmlstore/prepared_document.h"
#include "xslt/stylesheet.h"

namespace e2e {

namespace obs = netmark::observability;
namespace query = netmark::query;

namespace {

std::string QueryPart(const std::string& target) {
  size_t q = target.find('?');
  return q == std::string::npos ? std::string() : target.substr(q + 1);
}

/// Sums over the replay's timed executes.
struct ExecTotals {
  double executes = 0, plan_hits = 0;
  double probes = 0, walked = 0, sections = 0;
};

class Replay {
 public:
  Replay(Run* run, SpanLog* log)
      : run_(run),
        plan_(run->plan),
        nm_(*run->main->nm),
        store_(run->main->nm->store()),
        executor_(store_),
        handler_(store_),
        sheet_(Unwrap(netmark::xslt::Stylesheet::Parse(kReportSheet), "stylesheet")),
        log_(log) {
    // Caches of the replay's own, one set for the direct calls and another
    // (the handler's) for Handle: neither path reads or warms the other's,
    // nor the caches the HTTP phases used. A databank query goes through a
    // router per path, each with a local source on that path's caches.
    executor_.set_result_cache(&results_);
    executor_.set_plan_cache(&plans_);
    Check(handler_.RegisterStylesheet("report", kReportSheet), "handler stylesheet");
    if (plan_.federated()) {
      direct_router_ = MakeDatabankRouter(*run->main, &results_, &plans_);
      handler_router_ =
          MakeDatabankRouter(*run->main, handler_.result_cache(), handler_.plan_cache());
      handler_.set_router(handler_router_.get());
    }
  }

  /// A timed read: both paths, each call inside a span.
  void Read(int64_t id, uint32_t index);
  /// An untimed lookup, so both paths' caches hold what the server's held:
  /// the warm-up and the HTTP run's closed loops.
  void Warm(uint32_t index);
  void Put(int64_t id, const PutDoc& put, const std::string& name);

  const ExecTotals& exec() const { return exec_; }
  uint64_t hits() const { return hits_; }
  uint64_t lookups() const { return lookups_; }
  uint64_t evictions() const { return results_.snapshot().evictions; }
  const std::vector<double>& postings() const { return postings_; }
  const std::vector<double>& response_bytes() const { return response_bytes_; }
  const std::map<std::string, std::vector<double>>& remote_us() const { return source_us_; }
  const std::map<std::string, std::vector<double>>& convert_us_by_format() const {
    return convert_by_format_;
  }
  uint64_t versions_retained_max() const { return versions_max_; }

 private:
  /// The blocking path of /xdb through public calls, one span each.
  void Decomposed(int64_t id, const std::string& target);
  /// NetmarkService::Handle in-process for the same request.
  void Handle(int64_t id, const netmark::server::HttpRequest& request);
  /// Off-path probes: per-term text lookups and per-hit reconstructs.
  void Probes(int64_t id, const query::XdbQuery& q,
              const std::vector<query::QueryHit>& hits);
  void SampleVersions() {
    versions_max_ = std::max<uint64_t>(versions_max_, store_->mvcc_versions_retained());
  }

  Run* run_;
  const Plan& plan_;
  netmark::Netmark& nm_;
  netmark::xmlstore::XmlStore* store_;
  query::QueryResultCache results_;
  query::QueryPlanCache plans_;
  query::QueryExecutor executor_;
  netmark::server::NetmarkService handler_;
  std::unique_ptr<netmark::federation::Router> direct_router_;
  std::unique_ptr<netmark::federation::Router> handler_router_;
  netmark::xslt::Stylesheet sheet_;
  SpanLog* log_;

  ExecTotals exec_;
  uint64_t hits_ = 0;
  uint64_t lookups_ = 0;
  std::vector<double> postings_;
  std::vector<double> response_bytes_;
  std::map<std::string, std::vector<double>> source_us_;
  std::map<std::string, std::vector<double>> convert_by_format_;
  uint64_t versions_max_ = 0;
  std::vector<query::QueryHit> last_hits_;
  query::XdbQuery last_query_;
};

void Replay::Read(int64_t id, uint32_t index) {
  const std::string& target = plan_.space[index];
  auto request =
      Unwrap(netmark::server::ParseRequest(GetWire(target)), "parse replay request");
  const query::QueryResultCache::Snapshot before = results_.snapshot();
  // Alternate which path runs first, so neither always finds the CPU
  // caches warm.
  if (id % 2 == 0) {
    Decomposed(id, target);
    Handle(id, request);
  } else {
    Handle(id, request);
    Decomposed(id, target);
  }
  const query::QueryResultCache::Snapshot after = results_.snapshot();
  hits_ += after.hits - before.hits;
  lookups_ += after.hits - before.hits + after.misses - before.misses;
  if (!plan_.federated()) Probes(id, last_query_, last_hits_);
  SampleVersions();
}

void Replay::Warm(uint32_t index) {
  // Probes both paths' caches as the server's lookup did: a hit only moves
  // the entry up the LRU order, a miss runs the path, which inserts.
  const std::string& target = plan_.space[index];
  query::XdbQuery q = Unwrap(query::ParseXdbQuery(QueryPart(target)), "warm parse");
  const std::string key = q.ToQueryString();
  const uint64_t epoch = store_->BeginRead().epoch();
  if (results_.Lookup(key, epoch) == nullptr) {
    if (plan_.federated()) {
      Unwrap(direct_router_->QueryFederated(kDatabank, q), "warm fan-out");
    } else {
      auto snapshot = store_->BeginRead();
      Unwrap(executor_.Execute(q, snapshot), "warm execute");
    }
  }
  if (handler_.result_cache()->Lookup(key, epoch) == nullptr) {
    auto request = Unwrap(netmark::server::ParseRequest(GetWire(target)), "warm request");
    if (handler_.Handle(request).status != 200) run_->NoteError("warm Handle failed");
  }
}

void Replay::Handle(int64_t id, const netmark::server::HttpRequest& request) {
  const int64_t t0 = NowNanos();
  netmark::server::HttpResponse reply = handler_.Handle(request);
  log_->Add("server.handle", -1, id, t0, NowNanos());
  if (reply.status != 200) run_->NoteError("replayed Handle returned " + std::to_string(reply.status));
}

void Replay::Decomposed(int64_t id, const std::string& target) {
  ScopedSpan root(log_, "request", -1, id);
  query::XdbQuery q;
  {
    ScopedSpan s(log_, "query.parse", root.id(), id);
    q = Unwrap(query::ParseXdbQuery(QueryPart(target)), "replay parse");
  }
  netmark::xml::Document doc;
  if (plan_.federated()) {
    netmark::federation::FederatedResult fr;
    {
      ScopedSpan s(log_, "federation.fanout", root.id(), id);
      fr = Unwrap(direct_router_->QueryFederated(kDatabank, q), "replay fan-out");
    }
    for (const auto& outcome : fr.sources) {
      source_us_[outcome.source].push_back(static_cast<double>(outcome.latency_micros));
    }
    ScopedSpan s(log_, "query.compose", root.id(), id);
    doc = netmark::server::ComposeFederatedResults(q, fr);
  } else {
    netmark::xmlstore::XmlStore::ReadSnapshot snapshot;
    {
      ScopedSpan s(log_, "xmlstore.pin", root.id(), id);
      snapshot = store_->BeginRead();
    }
    query::QueryExecutor::Stats stats;
    {
      ScopedSpan s(log_, "query.execute", root.id(), id);
      last_hits_ = Unwrap(executor_.Execute(q, snapshot, &stats), "replay execute");
    }
    exec_.executes += 1;
    exec_.plan_hits += static_cast<double>(stats.plan_cache_hits);
    exec_.probes += static_cast<double>(stats.index_probes);
    exec_.walked += static_cast<double>(stats.nodes_walked);
    exec_.sections += static_cast<double>(stats.sections_built);
    ScopedSpan s(log_, "query.compose", root.id(), id);
    doc = Unwrap(query::ComposeResults(*store_, q, last_hits_), "replay compose");
  }
  if (!q.xslt.empty()) {
    ScopedSpan s(log_, "xslt.transform", root.id(), id);
    doc = Unwrap(netmark::xslt::Transform(sheet_, doc), "replay transform");
  }
  std::string body;
  {
    ScopedSpan s(log_, "xml.serialize", root.id(), id);
    body = netmark::xml::Serialize(doc);
  }
  response_bytes_.push_back(static_cast<double>(body.size()));
  last_query_ = std::move(q);
}

void Replay::Probes(int64_t id, const query::XdbQuery& q,
                    const std::vector<query::QueryHit>& hits) {
  for (const std::string& term : netmark::textindex::TokenizeTerms(q.content)) {
    ScopedSpan s(log_, "textindex.lookup", -1, id);
    postings_.push_back(static_cast<double>(store_->TextLookup(term).size()));
  }
  auto snapshot = store_->BeginRead();
  size_t probed = 0;
  for (const query::QueryHit& hit : hits) {
    if (!hit.context.valid() || probed == 3) continue;
    ++probed;
    ScopedSpan s(log_, "xmlstore.reconstruct", -1, id);
    Check(store_->ReconstructSubtree(hit.context).status(), "replay reconstruct");
  }
}

void Replay::Put(int64_t id, const PutDoc& put, const std::string& name) {
  // What the WebDAV PUT handler does, call by call.
  ScopedSpan root(log_, "put", -1, id);
  netmark::xml::Document doc;
  {
    const int64_t t0 = NowNanos();
    ScopedSpan s(log_, "convert.upmark", root.id(), id);
    doc = Unwrap(nm_.converters().Convert(name, put.body), "replay convert");
    convert_by_format_[netmark::convert::FileExtension(name)].push_back(
        static_cast<double>(NowNanos() - t0) / 1e3);
  }
  std::vector<netmark::xmlstore::DocRecord> existing;
  {
    ScopedSpan s(log_, "xmlstore.list_documents", root.id(), id);
    auto snapshot = store_->BeginRead();
    existing = Unwrap(store_->ListDocuments(), "replay list");
  }
  for (const auto& rec : existing) {
    if (rec.file_name != name) continue;
    ScopedSpan s(log_, "xmlstore.delete", root.id(), id);
    Check(store_->DeleteDocument(rec.doc_id), "replay delete");
  }
  netmark::xmlstore::DocumentInfo info;
  info.file_name = name;
  info.file_size = static_cast<int64_t>(put.body.size());
  netmark::xmlstore::PreparedDocument prepared;
  {
    ScopedSpan s(log_, "xmlstore.prepare", root.id(), id);
    prepared = netmark::xmlstore::PrepareDocument(doc, info, store_->node_types());
  }
  {
    ScopedSpan s(log_, "xmlstore.insert", root.id(), id);
    Check(store_->InsertPrepared(prepared).status(), "replay insert");
  }
  SampleVersions();
}

/// Percentile of `values` by name, 0 when the layer did no work.
double P(const std::map<std::string, std::vector<double>>& by_name,
         const std::string& name, double q) {
  auto it = by_name.find(name);
  return it == by_name.end() ? 0 : Percentile(it->second, q);
}

/// Per-span bookkeeping cost, measured on this machine.
double SpanCostNanos() {
  SpanLog scratch;
  const int n = 20000;
  const int64_t t0 = NowNanos();
  for (int i = 0; i < n; ++i) scratch.End(scratch.Begin("calibrate", -1, i));
  return static_cast<double>(NowNanos() - t0) / n;
}

/// p99 of the samples a histogram gained between two snapshots (bucket
/// upper bound the 99th percentile falls in).
double HistogramDeltaP99(const obs::MetricsSnapshot& before,
                         const obs::MetricsSnapshot& after, const std::string& name) {
  const obs::HistogramSample* b = FindHistogram(before, name);
  const obs::HistogramSample* a = FindHistogram(after, name);
  if (a == nullptr) return 0;
  std::vector<std::pair<int64_t, uint64_t>> delta = a->buckets;
  if (b != nullptr && b->buckets.size() == delta.size()) {
    for (size_t i = 0; i < delta.size(); ++i) delta[i].second -= b->buckets[i].second;
  }
  if (delta.empty() || delta.back().second == 0) return 0;
  const double target = 0.99 * static_cast<double>(delta.back().second);
  for (const auto& [bound, cumulative] : delta) {
    if (static_cast<double>(cumulative) >= target) {
      return static_cast<double>(bound == INT64_MAX ? delta[delta.size() - 2].first : bound);
    }
  }
  return 0;
}

}  // namespace

struct TracedRun::State {
  explicit State(Run* r) : run(r), replay(r, &log) {}
  Run* run;
  SpanLog log;
  Replay replay;
  int64_t id = 0;
  size_t reads = 0;
  size_t puts = 0;
};

TracedRun::TracedRun(Run* run) : state_(std::make_unique<State>(run)) {}

TracedRun::~TracedRun() = default;

void TracedRun::ReplayReads() {
  // The sequence the HTTP reads sent: the warm-up, then per round the open
  // loop in due order, timed, and the keys the closed loop looked up.
  State& st = *state_;
  const Plan& plan = st.run->plan;
  for (uint32_t idx : plan.warm) st.replay.Warm(idx);
  const size_t rounds = st.run->open_rounds.size();
  for (size_t r = 0; r < rounds; ++r) {
    const size_t from = plan.open_seq.size() * r / rounds;
    for (size_t i = 0; i < st.run->open_rounds[r].size(); ++i) {
      st.replay.Read(st.id++, plan.open_seq[from + i]);
      ++st.reads;
    }
    for (uint32_t idx : st.run->closed_sent[r]) st.replay.Warm(idx);
  }
}

std::vector<Metric> TracedRun::Finish(const obs::MetricsSnapshot& before,
                                      const std::string& spans_path) {
  Run* run = state_->run;
  const Plan& plan = run->plan;
  const obs::MetricsSnapshot after_http = run->main->nm->metrics()->Collect();
  Replay& replay = state_->replay;
  for (const PutDoc& put : plan.puts) {
    // The HTTP phases already PUT these names; a prefix keeps the replay's
    // new-name and overwrite pattern the same as theirs.
    replay.Put(state_->id++, put, "replay_" + put.name);
    ++state_->puts;
    ++run->docs_inserted;
  }
  const SpanLog& log = state_->log;
  const size_t reads = state_->reads;
  if (!log.WriteJsonLines(spans_path)) {
    std::fprintf(stderr, "warning: cannot write %s\n", spans_path.c_str());
  }

  const auto self = log.SelfMicrosByName();
  const obs::MetricsSnapshot now = run->main->nm->metrics()->Collect();
  auto delta = [&](const obs::MetricsSnapshot& from, const obs::MetricsSnapshot& to,
                   const std::string& name, const std::string& label = "") {
    return CounterSum(to, name, label) - CounterSum(from, name, label);
  };

  // The stages of the decomposed requests (the children of each "request"
  // span) vs Handle on the same requests: work on the blocking path that no
  // stage span covers shows as coverage below 1.
  double stages_ns = 0, handle_ns = 0;
  for (const Span& s : log.spans()) {
    if (s.parent >= 0 && log.spans()[static_cast<size_t>(s.parent)].name == "request") {
      stages_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
    if (s.name == "server.handle") handle_ns += static_cast<double>(s.end_ns - s.start_ns);
  }
  const double handle_p50 = P(self, "server.handle", 0.5);
  std::vector<double> rtt_us;
  std::vector<double> lag_ms;
  for (const auto& round : run->open_rounds) {
    for (const Outcome& o : round) {
      rtt_us.push_back(static_cast<double>(o.done_ns - o.sent_ns) / 1e3);
      lag_ms.push_back(o.lag_ms());
    }
  }
  const double rtt_p50 = Percentile(rtt_us, 0.5);
  const double spans_per_call = Ratio(static_cast<double>(log.spans().size()),
                                     static_cast<double>(reads + state_->puts));
  const double overhead_pct = Ratio(100.0 * SpanCostNanos() * spans_per_call / 1e3,
                                    handle_p50);
  const double coverage = Ratio(stages_ns, handle_ns);

  const double served = delta(before, after_http, "netmark_http_server_requests_total");
  const double docs = static_cast<double>(run->docs_inserted);
  auto daemon_now = run->main->daemon->counters();
  const auto& d0 = run->daemon_after_setup;
  const double daemon_docs = static_cast<double>(daemon_now.inserted - d0.inserted);

  std::vector<Metric> m;
  m.push_back({"server.handle_us_p50", handle_p50, "us"});
  m.push_back({"server.transport_us_p50", rtt_p50 - handle_p50, "us"});
  m.push_back({"server.epoll_wakeups_per_req",
               Ratio(delta(before, after_http, "netmark_http_server_epoll_wakeups_total"),
                     served), "count"});
  m.push_back({"server.shed_ratio",
               Ratio(delta(before, after_http, "netmark_http_shed_total"), served), "ratio"});
  m.push_back({"query.parse_us_p50", P(self, "query.parse", 0.5), "us"});
  m.push_back({"query.execute_us_p50", P(self, "query.execute", 0.5), "us"});
  m.push_back({"query.execute_us_p99", P(self, "query.execute", 0.99), "us"});
  const ExecTotals& ex = replay.exec();
  m.push_back({"query.result_cache_hit_ratio",
               Ratio(static_cast<double>(replay.hits()), static_cast<double>(replay.lookups())),
               "ratio"});
  m.push_back({"query.plan_cache_hit_ratio", Ratio(ex.plan_hits, ex.executes), "ratio"});
  m.push_back({"query.index_probes_per_req", Ratio(ex.probes, ex.executes), "count"});
  m.push_back({"query.nodes_walked_per_req", Ratio(ex.walked, ex.executes), "count"});
  m.push_back({"query.sections_per_req", Ratio(ex.sections, ex.executes), "count"});
  m.push_back({"query.compose_us_p50", P(self, "query.compose", 0.5), "us"});
  m.push_back({"query.compose_us_p99", P(self, "query.compose", 0.99), "us"});
  m.push_back({"textindex.lookup_us_p50", P(self, "textindex.lookup", 0.5), "us"});
  m.push_back({"textindex.postings_per_lookup",
               replay.postings().empty() ? 0 : Median(replay.postings()), "count"});
  m.push_back({"xmlstore.reconstruct_us_p50", P(self, "xmlstore.reconstruct", 0.5), "us"});
  m.push_back({"xmlstore.pin_us_p99", P(self, "xmlstore.pin", 0.99), "us"});
  m.push_back({"xmlstore.list_documents_us_p50", P(self, "xmlstore.list_documents", 0.5), "us"});
  m.push_back({"xmlstore.prepare_us_p50", P(self, "xmlstore.prepare", 0.5), "us"});
  m.push_back({"xmlstore.insert_us_p50", P(self, "xmlstore.insert", 0.5), "us"});
  m.push_back({"xmlstore.insert_us_p99", P(self, "xmlstore.insert", 0.99), "us"});
  m.push_back({"xmlstore.delete_us_p50", P(self, "xmlstore.delete", 0.5), "us"});
  m.push_back({"xmlstore.mvcc_versions_retained_max",
               static_cast<double>(replay.versions_retained_max()), "count"});
  m.push_back({"storage.wal_bytes_per_doc",
               Ratio(delta(before, now, "netmark_wal_bytes_appended_total"), docs), "B"});
  m.push_back({"storage.wal_fsyncs_per_doc",
               Ratio(delta(before, now, "netmark_wal_fsyncs_total"), docs), "count"});
  m.push_back({"storage.wal_commit_us_p99",
               HistogramDeltaP99(before, now, "netmark_wal_commit_micros"), "us"});
  m.push_back({"storage.checkpoints", delta(before, now, "netmark_checkpoints_total"), "count"});
  m.push_back({"storage.disk_bytes_per_input_byte",
               Ratio(static_cast<double>(DirectoryBytes(run->main->dir / "data")),
                     static_cast<double>(run->input_bytes)), "ratio"});
  m.push_back({"convert.upmark_us_p50", P(self, "convert.upmark", 0.5), "us"});
  m.push_back({"daemon.convert_ns_per_doc",
               Ratio(static_cast<double>(daemon_now.convert_ns - d0.convert_ns), daemon_docs),
               "ns"});
  m.push_back({"daemon.insert_ns_per_doc",
               Ratio(static_cast<double>(daemon_now.insert_ns - d0.insert_ns), daemon_docs),
               "ns"});
  m.push_back({"xslt.transform_us_p50", P(self, "xslt.transform", 0.5), "us"});
  m.push_back({"xml.serialize_us_p50", P(self, "xml.serialize", 0.5), "us"});
  m.push_back({"xml.response_bytes_p50",
               replay.response_bytes().empty() ? 0 : Median(replay.response_bytes()), "B"});
  m.push_back({"federation.fanout_us_p50", P(self, "federation.fanout", 0.5), "us"});
  auto source_p50 = [&](const char* source) {
    auto it = replay.remote_us().find(source);
    return it == replay.remote_us().end() ? 0.0 : Median(it->second);
  };
  m.push_back({"federation.remote_us_p50", source_p50("remote"), "us"});
  m.push_back({"federation.augment_us_p50", source_p50("lessons"), "us"});
  double reuse = 0;
  if (const auto* transport = run->main->remote_transport) {
    reuse = Ratio(static_cast<double>(transport->client().connections_reused()),
                  static_cast<double>(transport->client().connections_opened() +
                                      transport->client().connections_reused()));
  }
  m.push_back({"federation.conn_reuse_ratio", reuse, "ratio"});
  m.push_back({"loadgen.lag_ms_p99", Percentile(lag_ms, 0.99), "ms"});
  m.push_back({"trace.coverage", coverage, "ratio"});
  m.push_back({"trace.overhead_pct", overhead_pct, "%"});

  // Traced-run hygiene: the replay's cache sees the HTTP run's lookups one
  // at a time. Its hits must be those the model expects, less any it
  // evicted, and the server's must be its own, less concurrent first
  // lookups (both miss over HTTP).
  const CacheCheck& c = run->cache;
  std::fprintf(stderr,
               "replay: %zu reads, %zu spans; result-cache hits replay %llu of %llu, "
               "expected %llu, server %llu of %llu; coverage %.3f%s\n",
               reads, log.spans().size(), static_cast<unsigned long long>(replay.hits()),
               static_cast<unsigned long long>(replay.lookups()),
               static_cast<unsigned long long>(c.expected_hits),
               static_cast<unsigned long long>(c.hits),
               static_cast<unsigned long long>(c.lookups), coverage,
               coverage < 0.9 ? "  ** below 0.9: unexplained gap between the public "
                                "calls and Handle **" : "");
  run->Expect(replay.lookups() == reads && replay.hits() <= c.expected_hits &&
                  replay.hits() + replay.evictions() >= c.expected_hits &&
                  c.hits <= replay.hits() && c.hits + c.concurrent >= replay.hits(),
              "replay result-cache hits disagree with the HTTP run's");
  for (const auto& [format, us] : replay.convert_us_by_format()) {
    std::fprintf(stderr, "  convert.upmark_us_p50[%s] %.1f\n", format.c_str(),
                 Median(us));
  }
  // The live Fig 7 stage table: p50 per stage and its share of the mean
  // end-to-end (HTTP round trip) time.
  const double rtt_mean = Mean(rtt_us);
  // Mean self time per read request (a stage a request skips counts 0).
  auto mean_self = [&](const std::string& name) {
    auto it = self.find(name);
    if (it == self.end() || reads == 0) return 0.0;
    return Mean(it->second) * static_cast<double>(it->second.size()) /
           static_cast<double>(reads);
  };
  const double handle_mean = mean_self("server.handle");
  std::fprintf(stderr, "Fig 7 stages (%s): %-10s %10s %8s\n", plan.name.c_str(), "stage",
               "p50 ms", "share");
  const std::vector<std::pair<std::string, std::string>> stages = {
      {"parse", "query.parse"},       {"pin", "xmlstore.pin"},
      {"search", "query.execute"},    {"fanout", "federation.fanout"},
      {"compose", "query.compose"},   {"XSLT", "xslt.transform"},
      {"serialize", "xml.serialize"}};
  for (const auto& [label, name] : stages) {
    std::fprintf(stderr, "  %-10s %10.4f %7.1f%%\n", label.c_str(), P(self, name, 0.5) / 1e3,
                 100.0 * Ratio(mean_self(name), rtt_mean));
  }
  std::fprintf(stderr, "  %-10s %10.4f %7.1f%%\n", "transport", (rtt_p50 - handle_p50) / 1e3,
               100.0 * Ratio(rtt_mean - handle_mean, rtt_mean));
  return m;
}

}  // namespace e2e
