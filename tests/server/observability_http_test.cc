// The observability HTTP surface end to end through NetmarkService::Handle:
// GET /metrics (Prometheus exposition), GET /healthz (ok + degraded with an
// open breaker), and trace=1 XDB queries returning a consistent span tree.

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/temp_dir.h"
#include "core/netmark.h"
#include "federation/circuit_breaker.h"
#include "federation/source.h"

namespace netmark {
namespace {

using server::HttpRequest;
using server::HttpResponse;

HttpRequest Get(const std::string& path, const std::string& query = "") {
  HttpRequest req;
  req.method = "GET";
  req.path = path;
  req.query = query;
  req.target = query.empty() ? path : path + "?" + query;
  return req;
}

/// A source that always refuses the connection — opens its breaker fast.
class FailingSource : public federation::Source {
 public:
  explicit FailingSource(std::string name) : name_(std::move(name)) {}
  const std::string& name() const override { return name_; }
  federation::Capabilities capabilities() const override {
    return federation::Capabilities::Full();
  }
  using federation::Source::Execute;
  Result<query::ResultSet> Execute(
      const query::XdbQuery& query, const federation::CallContext& ctx) override {
    (void)query;
    (void)ctx;
    return Status::Unavailable("connection refused");
  }

 private:
  std::string name_;
};

class ObservabilityHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = TempDir::Make("obs_http");
    ASSERT_TRUE(dir.ok());
    dir_ = std::make_unique<TempDir>(std::move(*dir));
    NetmarkOptions options;
    options.data_dir = dir_->Sub("data").string();
    // One failure trips a source's breaker; no retries, no backoff sleeps.
    options.router.breaker.failure_threshold = 1;
    options.router.breaker.cooldown_ms = 60000;
    options.router.max_retries = 0;
    options.router.backoff = BackoffPolicy::None();
    options.router.sleep_ms = [](int64_t) {};
    auto nm = Netmark::Open(options);
    ASSERT_TRUE(nm.ok());
    nm_ = std::move(*nm);
    ASSERT_TRUE(
        nm_->IngestContent("memo.txt", "OVERVIEW\nengine status green\n").ok());
  }

  HttpResponse Handle(const HttpRequest& req) { return nm_->service()->Handle(req); }

  std::unique_ptr<TempDir> dir_;
  std::unique_ptr<Netmark> nm_;
};

TEST_F(ObservabilityHttpTest, MetricsEndpointExposesRegistry) {
  // Drive a query first so the counters are nonzero.
  HttpResponse query = Handle(Get("/xdb", "context=Overview"));
  ASSERT_EQ(query.status, 200);

  HttpResponse resp = Handle(Get("/metrics"));
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.headers["Content-Type"], "text/plain; version=0.0.4; charset=utf-8");
  // Request accounting: the /xdb hit above is already visible.
  EXPECT_NE(resp.body.find("# TYPE netmark_http_requests_total counter"),
            std::string::npos);
  EXPECT_NE(resp.body.find("netmark_http_requests_total{route=\"/xdb\"} 1"),
            std::string::npos);
  // Query-latency histogram series.
  EXPECT_NE(resp.body.find("# TYPE netmark_query_latency_micros histogram"),
            std::string::npos);
  EXPECT_NE(resp.body.find("netmark_query_latency_micros_count 1"),
            std::string::npos);
  // Executor metrics re-homed onto the instance registry.
  EXPECT_NE(resp.body.find("netmark_xdb_executes_total 1"), std::string::npos);
  // Ingestion histograms are registered (by the facade wiring) even before a
  // daemon runs.
  EXPECT_NE(resp.body.find("netmark_federation_queries_total"), std::string::npos);
  // /metrics counts itself (the increment lands before the render).
  EXPECT_NE(resp.body.find("netmark_http_requests_total{route=\"/metrics\"} 1"),
            std::string::npos);
  HttpResponse again = Handle(Get("/metrics"));
  EXPECT_NE(again.body.find("netmark_http_requests_total{route=\"/metrics\"} 2"),
            std::string::npos);
}

TEST_F(ObservabilityHttpTest, HealthzReportsOkWithStoreCounts) {
  HttpResponse resp = Handle(Get("/healthz"));
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.headers["Content-Type"], "application/json");
  EXPECT_NE(resp.body.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"documents\":1"), std::string::npos);
  EXPECT_NE(resp.body.find("\"daemon\":null"), std::string::npos);
  EXPECT_NE(resp.body.find("\"breakers\":[]"), std::string::npos);
}

TEST_F(ObservabilityHttpTest, HealthzReportsQueryCacheState) {
  // Cold cache: one miss from the first query, then a hit on the repeat.
  ASSERT_EQ(Handle(Get("/xdb", "context=Overview")).status, 200);
  ASSERT_EQ(Handle(Get("/xdb", "context=Overview")).status, 200);

  HttpResponse resp = Handle(Get("/healthz"));
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"query_cache\":{\"enabled\":true"),
            std::string::npos)
      << resp.body;
  EXPECT_NE(resp.body.find("\"entries\":1"), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("\"hits\":1"), std::string::npos);
  EXPECT_NE(resp.body.find("\"misses\":1"), std::string::npos);
  EXPECT_NE(resp.body.find("\"hit_ratio\":0.5000"), std::string::npos);
  EXPECT_NE(resp.body.find("\"plan_entries\":1"), std::string::npos);

  // The cache counters are also on /metrics.
  HttpResponse metrics = Handle(Get("/metrics"));
  EXPECT_NE(metrics.body.find("netmark_query_cache_hits_total 1"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("netmark_query_cache_misses_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("netmark_query_cache_entries 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("netmark_query_plan_cache_entries 1"),
            std::string::npos);
}

TEST_F(ObservabilityHttpTest, TraceAnnotatesCacheOutcome) {
  // The same annotation feeds slow-query log lines (they render the span
  // tree), so `cache=hit|miss` is asserted here through the trace surface.
  HttpResponse cold = Handle(Get("/xdb", "context=Overview&trace=1"));
  ASSERT_EQ(cold.status, 200);
  EXPECT_NE(cold.body.find("<annotation key=\"cache\" value=\"miss\""),
            std::string::npos)
      << cold.body;
  HttpResponse warm = Handle(Get("/xdb", "context=Overview&trace=1"));
  EXPECT_NE(warm.body.find("<annotation key=\"cache\" value=\"hit\""),
            std::string::npos)
      << warm.body;
}

TEST_F(ObservabilityHttpTest, HealthzDegradedWhenBreakerOpens) {
  ASSERT_TRUE(nm_->RegisterSource(std::make_shared<FailingSource>("flaky")).ok());
  ASSERT_TRUE(nm_->DefineDatabank("bank", {"flaky"}).ok());

  // The failing fan-out trips the breaker (threshold 1, no retries).
  HttpResponse query = Handle(Get("/xdb", "databank=bank&content=engine"));
  ASSERT_EQ(query.status, 200) << "partial results still answer: " << query.body;

  HttpResponse resp = Handle(Get("/healthz"));
  ASSERT_EQ(resp.status, 200) << "degraded is a status field, not an HTTP error";
  EXPECT_NE(resp.body.find("\"status\":\"degraded\""), std::string::npos)
      << resp.body;
  EXPECT_NE(resp.body.find("\"source\":\"flaky\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"state\":\"open\""), std::string::npos);

  // The breaker-state gauge mirrors it on /metrics (closed=0 half-open=1
  // open=2).
  HttpResponse metrics = Handle(Get("/metrics"));
  EXPECT_NE(metrics.body.find("netmark_breaker_state{source=\"flaky\"} 2"),
            std::string::npos)
      << metrics.body;
}

TEST_F(ObservabilityHttpTest, TraceParamAppendsSpanTree) {
  HttpResponse resp = Handle(Get("/xdb", "context=Overview&trace=1"));
  ASSERT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("<trace total_us="), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("name=\"xdb\""), std::string::npos);
  EXPECT_NE(resp.body.find("name=\"execute\""), std::string::npos);
  EXPECT_NE(resp.body.find("<annotation key=\"hits\" value=\"1\""),
            std::string::npos)
      << resp.body;

  // Without the flag the response is unchanged.
  HttpResponse plain = Handle(Get("/xdb", "context=Overview"));
  EXPECT_EQ(plain.body.find("<trace"), std::string::npos);
}

TEST_F(ObservabilityHttpTest, FederatedTraceCoversFanOut) {
  ASSERT_TRUE(nm_->RegisterSelfAsSource("self").ok());
  ASSERT_TRUE(nm_->DefineDatabank("bank", {"self"}).ok());

  HttpResponse resp = Handle(Get("/xdb", "databank=bank&content=engine&trace=1"));
  ASSERT_EQ(resp.status, 200);
  // The span tree mirrors the fan-out: xdb -> federated -> source:self.
  EXPECT_NE(resp.body.find("name=\"xdb\""), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("name=\"federated\""), std::string::npos);
  EXPECT_NE(resp.body.find("name=\"source:self\""), std::string::npos);
  EXPECT_NE(resp.body.find("<annotation key=\"databank\" value=\"bank\""),
            std::string::npos);
}

TEST_F(ObservabilityHttpTest, XdbResponsesCarryTraceIdHeader) {
  // Default sample rate is 1.0: every request is traced and the trace id
  // surfaces as a response header so clients can correlate with /traces.
  HttpResponse resp = Handle(Get("/xdb", "context=Overview"));
  ASSERT_EQ(resp.status, 200);
  const std::string id = resp.headers["X-Netmark-Trace-Id"];
  ASSERT_EQ(id.size(), 32u) << "not a W3C trace id: " << id;
  for (char c : id) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << id;
  }
  // The same id resolves on /traces right away.
  HttpResponse detail = Handle(Get("/traces", "id=" + id));
  ASSERT_EQ(detail.status, 200) << detail.body;
  EXPECT_NE(detail.body.find("\"id\":\"" + id + "\""), std::string::npos);
}

TEST_F(ObservabilityHttpTest, InboundTraceparentAdoptsUpstreamContext) {
  // A mediator upstream sends its W3C context; this instance must join that
  // trace (same id) and return its span subtree even without trace=1.
  const std::string upstream = "4bf92f3577b34da6a3ce929d0e0e4736";
  HttpRequest req = Get("/xdb", "context=Overview");
  req.headers["traceparent"] = "00-" + upstream + "-00f067aa0ba902b7-01";
  HttpResponse resp = Handle(req);
  ASSERT_EQ(resp.status, 200);
  EXPECT_EQ(resp.headers["X-Netmark-Trace-Id"], upstream);
  // The <trace> block rides along for the caller to graft.
  EXPECT_NE(resp.body.find("<trace total_us="), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("<annotation key=\"caller_span\" "
                           "value=\"00f067aa0ba902b7\""),
            std::string::npos)
      << resp.body;

  // A malformed header starts a fresh trace instead of erroring.
  HttpRequest bad = Get("/xdb", "context=Overview");
  bad.headers["traceparent"] = "00-not-a-trace";
  HttpResponse fresh = Handle(bad);
  ASSERT_EQ(fresh.status, 200);
  EXPECT_NE(fresh.headers["X-Netmark-Trace-Id"], upstream);
  EXPECT_EQ(fresh.headers["X-Netmark-Trace-Id"].size(), 32u);
}

TEST_F(ObservabilityHttpTest, TracesEndpointListsAndFetchesSpanTrees) {
  HttpResponse query = Handle(Get("/xdb", "context=Overview"));
  ASSERT_EQ(query.status, 200);
  const std::string id = query.headers["X-Netmark-Trace-Id"];
  ASSERT_FALSE(id.empty());

  // Listing: newest-first summaries plus the store's own vitals.
  HttpResponse list = Handle(Get("/traces"));
  ASSERT_EQ(list.status, 200);
  EXPECT_EQ(list.headers["Content-Type"], "application/json");
  EXPECT_NE(list.body.find("\"sample_rate\":1.0000"), std::string::npos)
      << list.body;
  EXPECT_NE(list.body.find("\"id\":\"" + id + "\""), std::string::npos);
  EXPECT_NE(list.body.find("\"root\":\"xdb\""), std::string::npos);

  // Detail: the full span tree with parent links and attribution spans.
  HttpResponse detail = Handle(Get("/traces", "id=" + id));
  ASSERT_EQ(detail.status, 200);
  EXPECT_NE(detail.body.find("\"name\":\"xdb\""), std::string::npos)
      << detail.body;
  EXPECT_NE(detail.body.find("\"name\":\"execute\""), std::string::npos);
  EXPECT_NE(detail.body.find("\"name\":\"compose\""), std::string::npos);
  EXPECT_NE(detail.body.find("\"name\":\"serialize\""), std::string::npos);
  EXPECT_NE(detail.body.find("\"name\":\"cache_probe\""), std::string::npos);
  EXPECT_NE(detail.body.find("\"parent\":-1"), std::string::npos);

  // The XML form feeds the CLI flame view.
  HttpResponse as_xml = Handle(Get("/traces", "id=" + id + "&format=xml"));
  ASSERT_EQ(as_xml.status, 200);
  EXPECT_NE(as_xml.body.find("<netmark-trace id=\"" + id + "\""),
            std::string::npos)
      << as_xml.body;
  EXPECT_NE(as_xml.body.find("name=\"xdb\""), std::string::npos);

  // Unknown ids 404; other methods are rejected.
  EXPECT_EQ(Handle(Get("/traces", "id=ffffffffffffffffffffffffffffffff")).status,
            404);
  HttpRequest post = Get("/traces");
  post.method = "POST";
  EXPECT_EQ(Handle(post).status, 405);
}

TEST_F(ObservabilityHttpTest, BuildInfoOnMetricsAndHealthz) {
  HttpResponse metrics = Handle(Get("/metrics"));
  ASSERT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE netmark_build_info gauge"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("netmark_build_info{"), std::string::npos);
  EXPECT_NE(metrics.body.find("version=\""), std::string::npos);
  EXPECT_NE(metrics.body.find("git_sha=\""), std::string::npos);

  HttpResponse healthz = Handle(Get("/healthz"));
  ASSERT_EQ(healthz.status, 200);
  EXPECT_NE(healthz.body.find("\"build\":{\"version\":\""), std::string::npos)
      << healthz.body;
  EXPECT_NE(healthz.body.find("\"git_sha\":\""), std::string::npos);
}

TEST_F(ObservabilityHttpTest, TraceStoreCountersOnMetrics) {
  ASSERT_EQ(Handle(Get("/xdb", "context=Overview")).status, 200);
  HttpResponse metrics = Handle(Get("/metrics"));
  EXPECT_NE(metrics.body.find("# TYPE netmark_traces_sampled_total counter"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("netmark_traces_sampled_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("netmark_traces_retained_total 1"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("netmark_traces_dropped_total 0"),
            std::string::npos);
}

TEST_F(ObservabilityHttpTest, LatencyHistogramCarriesExemplar) {
  HttpResponse query = Handle(Get("/xdb", "context=Overview"));
  ASSERT_EQ(query.status, 200);
  const std::string id = query.headers["X-Netmark-Trace-Id"];
  ASSERT_FALSE(id.empty());

  HttpResponse metrics = Handle(Get("/metrics"));
  // The retained trace's id is attached to the latency bucket it landed in,
  // so a slow bucket on a dashboard links straight to /traces?id=.
  const std::string exemplar = " # {trace_id=\"" + id + "\"}";
  EXPECT_NE(metrics.body.find(exemplar), std::string::npos) << metrics.body;
  size_t pos = metrics.body.find(exemplar);
  size_t line_start = metrics.body.rfind('\n', pos);
  line_start = (line_start == std::string::npos) ? 0 : line_start + 1;
  EXPECT_EQ(metrics.body.compare(line_start,
                                 strlen("netmark_query_latency_micros_bucket"),
                                 "netmark_query_latency_micros_bucket"),
            0)
      << metrics.body.substr(line_start, 120);
}

}  // namespace
}  // namespace netmark
