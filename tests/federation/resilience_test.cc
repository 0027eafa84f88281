// Deterministic chaos suite for the federation resilience layer: deadlines,
// retries with backoff, circuit breakers, concurrent fan-out, and
// partial-result semantics (ISSUE 2 acceptance scenario lives here).

#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "federation/fault_injection.h"
#include "federation/remote_source.h"
#include "federation/router.h"
#include "query/xdb_query.h"

namespace netmark::federation {
namespace {

/// Canned `<results>` body with the given docids (every hit matches
/// content=alpha).
std::string ResultsBody(std::vector<int> docids) {
  std::string out = "<results>";
  for (int id : docids) {
    out += "<result doc=\"d" + std::to_string(id) + ".xml\" docid=\"" +
           std::to_string(id) +
           "\"><context>Sec</context><content>alpha text</content></result>";
  }
  out += "</results>";
  return out;
}

/// Always-healthy transport returning a canned body; records request paths.
class StaticTransport : public HttpTransport {
 public:
  explicit StaticTransport(std::string body) : body_(std::move(body)) {}
  using HttpTransport::Get;
  netmark::Result<std::string> Get(const std::string& path_and_query,
                                   const CallContext& ctx) override {
    (void)ctx;
    std::lock_guard<std::mutex> lock(mu_);
    paths_.push_back(path_and_query);
    return body_;
  }
  std::vector<std::string> paths() const {
    std::lock_guard<std::mutex> lock(mu_);
    return paths_;
  }

 private:
  std::string body_;
  mutable std::mutex mu_;
  std::vector<std::string> paths_;
};

/// A source that never answers: it blocks until the caller's deadline (or an
/// explicit Release()), like a remote that accepted the connection and went
/// silent. Deadline-aware so worker joins always terminate.
class HangingSource : public Source {
 public:
  explicit HangingSource(std::string name) : name_(std::move(name)) {}
  ~HangingSource() override { Release(); }
  const std::string& name() const override { return name_; }
  Capabilities capabilities() const override { return Capabilities::Full(); }
  using Source::Execute;
  netmark::Result<query::ResultSet> Execute(const query::XdbQuery& query,
                                           const CallContext& ctx) override {
    (void)query;
    std::unique_lock<std::mutex> lock(mu_);
    ++calls_;
    if (ctx.bounded()) {
      std::chrono::steady_clock::time_point deadline{
          std::chrono::microseconds(ctx.deadline_micros)};
      cv_.wait_until(lock, deadline, [&] { return released_; });
    } else {
      cv_.wait(lock, [&] { return released_; });
    }
    if (released_) return query::ResultSet{};
    return netmark::Status::DeadlineExceeded("hung source gave up at deadline");
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }
  int calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

 private:
  std::string name_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool released_ = false;
  int calls_ = 0;
};

/// Router options for fast deterministic tests: no real backoff sleeps, no
/// breaker unless a test opts in.
RouterOptions FastOptions() {
  RouterOptions options;
  options.backoff = netmark::BackoffPolicy::None();
  options.sleep_ms = [](int64_t) {};
  options.breaker = CircuitBreakerConfig::Disabled();
  return options;
}

std::shared_ptr<RemoteSource> HealthySource(const std::string& name,
                                            std::vector<int> docids) {
  return std::make_shared<RemoteSource>(
      name, std::make_unique<StaticTransport>(ResultsBody(std::move(docids))));
}

query::XdbQuery ContentQuery(int64_t timeout_ms = 0) {
  query::XdbQuery q;
  q.content = "alpha";
  q.timeout_ms = timeout_ms;
  return q;
}

const SourceOutcome* FindOutcome(const FederatedResult& result,
                                 const std::string& name) {
  for (const SourceOutcome& s : result.sources) {
    if (s.source == name) return &s;
  }
  return nullptr;
}

// The ISSUE acceptance scenario: {1 healthy, 1 hung, 1 returning 500s}.
// The query must complete within the configured deadline — not the hang
// duration — return the healthy source's hits, and annotate the other two.
TEST(ResilienceTest, AcceptanceHealthyHungAndFailingSources) {
  RouterOptions options = FastOptions();
  options.max_retries = 2;
  Router router(options);

  auto hung = std::make_shared<HangingSource>("hung");
  auto broken = std::make_shared<RemoteSource>(
      "flaky500", [] {
        FaultSpec spec;
        spec.http_500_rate = 1.0;
        return std::make_unique<FaultInjectingTransport>(
            std::make_unique<StaticTransport>(ResultsBody({9})), spec, 77);
      }());
  ASSERT_TRUE(router.RegisterSource(HealthySource("healthy", {1, 2})).ok());
  ASSERT_TRUE(router.RegisterSource(hung).ok());
  ASSERT_TRUE(router.RegisterSource(broken).ok());
  ASSERT_TRUE(
      router.DefineDatabank("bank", {"healthy", "hung", "flaky500"}).ok());

  const int64_t start = netmark::MonotonicMicros();
  auto result = router.QueryFederated("bank", ContentQuery(/*timeout_ms=*/250));
  const int64_t elapsed_ms = (netmark::MonotonicMicros() - start) / 1000;
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Bounded by the deadline, not the hang: well under the 30s default and
  // within a small multiple of the 250ms budget.
  EXPECT_LT(elapsed_ms, 5000);

  // Only the healthy source's hits arrive, in doc_id order.
  ASSERT_EQ(result->hits.size(), 2u);
  EXPECT_EQ(result->hits[0].source, "healthy");
  EXPECT_EQ(result->hits[0].doc_id, 1);
  EXPECT_EQ(result->hits[1].doc_id, 2);
  EXPECT_FALSE(result->complete());

  ASSERT_EQ(result->sources.size(), 3u);
  // Outcomes come back in databank declaration order.
  EXPECT_EQ(result->sources[0].source, "healthy");
  EXPECT_EQ(result->sources[1].source, "hung");
  EXPECT_EQ(result->sources[2].source, "flaky500");

  const SourceOutcome* ok = FindOutcome(*result, "healthy");
  ASSERT_NE(ok, nullptr);
  EXPECT_EQ(ok->state, SourceState::kOk);
  EXPECT_EQ(ok->attempts, 1);
  EXPECT_EQ(ok->hits, 2u);

  const SourceOutcome* timed_out = FindOutcome(*result, "hung");
  ASSERT_NE(timed_out, nullptr);
  EXPECT_EQ(timed_out->state, SourceState::kTimedOut);
  EXPECT_GE(timed_out->attempts, 1);
  EXPECT_EQ(timed_out->hits, 0u);

  const SourceOutcome* failed = FindOutcome(*result, "flaky500");
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->state, SourceState::kFailed);
  EXPECT_EQ(failed->attempts, options.max_retries + 1);
  EXPECT_NE(failed->error.find("HTTP 500"), std::string::npos);

  EXPECT_EQ(result->stats.sources_queried, 3u);
  EXPECT_EQ(result->stats.source_timeouts, 1u);
  EXPECT_EQ(result->stats.source_failures, 1u);
  EXPECT_EQ(result->stats.retries, 2u);
  EXPECT_EQ(result->stats.final_hits, 2u);
}

TEST(ResilienceTest, FlakySourceRecoversWithinRetryBudget) {
  RouterOptions options = FastOptions();
  options.max_retries = 2;
  Router router(options);

  FaultSpec spec;
  spec.fail_first_n = 2;  // refuse twice, then answer
  auto transport = std::make_unique<FaultInjectingTransport>(
      std::make_unique<StaticTransport>(ResultsBody({4})), spec, 5);
  FaultInjectingTransport* raw = transport.get();
  ASSERT_TRUE(router
                  .RegisterSource(std::make_shared<RemoteSource>(
                      "flaky", std::move(transport)))
                  .ok());
  ASSERT_TRUE(router.DefineDatabank("bank", {"flaky"}).ok());

  auto result = router.QueryFederated("bank", ContentQuery(1000));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->complete());
  ASSERT_EQ(result->sources.size(), 1u);
  EXPECT_EQ(result->sources[0].state, SourceState::kOk);
  EXPECT_EQ(result->sources[0].attempts, 3);
  EXPECT_EQ(result->stats.retries, 2u);
  ASSERT_EQ(result->hits.size(), 1u);
  EXPECT_EQ(result->hits[0].doc_id, 4);
  EXPECT_EQ(raw->calls(), 3);
}

TEST(ResilienceTest, MalformedBodyIsNeverRetried) {
  // A garbage payload *arrived* — retrying will not fix it.
  RouterOptions options = FastOptions();
  options.max_retries = 5;
  Router router(options);

  FaultSpec spec;
  spec.malformed_rate = 1.0;
  auto transport = std::make_unique<FaultInjectingTransport>(
      std::make_unique<StaticTransport>(ResultsBody({1})), spec, 5);
  FaultInjectingTransport* raw = transport.get();
  ASSERT_TRUE(router
                  .RegisterSource(std::make_shared<RemoteSource>(
                      "garbled", std::move(transport)))
                  .ok());
  ASSERT_TRUE(router.DefineDatabank("bank", {"garbled"}).ok());

  auto result = router.QueryFederated("bank", ContentQuery(1000));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->sources.size(), 1u);
  EXPECT_EQ(result->sources[0].state, SourceState::kFailed);
  EXPECT_EQ(result->sources[0].attempts, 1) << "parse errors must not retry";
  EXPECT_EQ(raw->calls(), 1);
  EXPECT_EQ(result->stats.retries, 0u);
}

TEST(ResilienceTest, TruncatedBodyIsRetriedUntilBudgetExhausted) {
  RouterOptions options = FastOptions();
  options.max_retries = 2;
  Router router(options);

  FaultSpec spec;
  spec.truncate_rate = 1.0;
  auto transport = std::make_unique<FaultInjectingTransport>(
      std::make_unique<StaticTransport>(ResultsBody({1})), spec, 5);
  FaultInjectingTransport* raw = transport.get();
  ASSERT_TRUE(router
                  .RegisterSource(std::make_shared<RemoteSource>(
                      "cutoff", std::move(transport)))
                  .ok());
  ASSERT_TRUE(router.DefineDatabank("bank", {"cutoff"}).ok());

  auto result = router.QueryFederated("bank", ContentQuery(1000));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->sources.size(), 1u);
  EXPECT_EQ(result->sources[0].state, SourceState::kFailed);
  EXPECT_EQ(result->sources[0].attempts, 3);
  EXPECT_NE(result->sources[0].error.find("truncated"), std::string::npos);
  EXPECT_EQ(raw->calls(), 3);
}

TEST(ResilienceTest, BreakerOpensThenHalfOpenProbeRecovers) {
  RouterOptions options = FastOptions();
  options.max_retries = 0;  // one attempt per query: failures count cleanly
  Router router(options);

  CircuitBreakerConfig breaker;
  breaker.failure_threshold = 2;
  breaker.cooldown_ms = 30;
  SourcePolicy policy;
  policy.breaker = breaker;

  auto transport = std::make_unique<FaultInjectingTransport>(
      std::make_unique<StaticTransport>(ResultsBody({1})), FaultSpec::Healthy(),
      5);
  FaultInjectingTransport* raw = transport.get();
  ASSERT_TRUE(router
                  .RegisterSource(
                      std::make_shared<RemoteSource>("srv", std::move(transport)),
                      policy)
                  .ok());
  ASSERT_TRUE(router.DefineDatabank("bank", {"srv"}).ok());

  // Two failing queries trip the breaker.
  raw->FailNext(2);
  for (int i = 0; i < 2; ++i) {
    auto r = router.QueryFederated("bank", ContentQuery(1000));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->sources[0].state, SourceState::kFailed);
  }
  EXPECT_EQ(raw->calls(), 2);
  EXPECT_EQ(router.GetBreaker("srv")->state(netmark::MonotonicMicros()),
            CircuitBreaker::State::kOpen);

  // While open, queries are skipped without touching the transport.
  auto skipped = router.QueryFederated("bank", ContentQuery(1000));
  ASSERT_TRUE(skipped.ok());
  EXPECT_EQ(skipped->sources[0].state, SourceState::kBreakerOpen);
  EXPECT_EQ(skipped->sources[0].attempts, 0);
  EXPECT_EQ(skipped->stats.breaker_skips, 1u);
  EXPECT_EQ(raw->calls(), 2) << "open breaker must not issue calls";

  // After the cooldown the half-open probe goes through; the (now healthy)
  // source answers and the breaker closes again.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  auto probe = router.QueryFederated("bank", ContentQuery(1000));
  ASSERT_TRUE(probe.ok());
  EXPECT_EQ(probe->sources[0].state, SourceState::kOk);
  EXPECT_EQ(raw->calls(), 3);
  EXPECT_EQ(router.GetBreaker("srv")->state(netmark::MonotonicMicros()),
            CircuitBreaker::State::kClosed);

  auto after = router.QueryFederated("bank", ContentQuery(1000));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->complete());
}

TEST(ResilienceTest, AllSourcesDownYieldsEmptyAnnotatedResult) {
  RouterOptions options = FastOptions();
  options.max_retries = 1;
  Router router(options);

  FaultSpec refused;
  refused.error_rate = 1.0;
  FaultSpec truncated;
  truncated.truncate_rate = 1.0;
  ASSERT_TRUE(router
                  .RegisterSource(std::make_shared<RemoteSource>(
                      "down-a", std::make_unique<FaultInjectingTransport>(
                                    std::make_unique<StaticTransport>(
                                        ResultsBody({1})),
                                    refused, 11)))
                  .ok());
  ASSERT_TRUE(router
                  .RegisterSource(std::make_shared<RemoteSource>(
                      "down-b", std::make_unique<FaultInjectingTransport>(
                                    std::make_unique<StaticTransport>(
                                        ResultsBody({2})),
                                    truncated, 12)))
                  .ok());
  ASSERT_TRUE(router.DefineDatabank("bank", {"down-a", "down-b"}).ok());

  // The databank keeps serving: an ok() result with no hits and a full
  // outcome report, never an error.
  auto result = router.QueryFederated("bank", ContentQuery(1000));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->hits.empty());
  EXPECT_FALSE(result->complete());
  ASSERT_EQ(result->sources.size(), 2u);
  for (const SourceOutcome& s : result->sources) {
    EXPECT_EQ(s.state, SourceState::kFailed);
    EXPECT_EQ(s.attempts, 2);
    EXPECT_FALSE(s.error.empty());
  }
  EXPECT_EQ(result->stats.source_failures, 2u);
}

TEST(ResilienceTest, SingleHungSourceTimesOutTheQuery) {
  Router router(FastOptions());
  auto hung = std::make_shared<HangingSource>("hung");
  ASSERT_TRUE(router.RegisterSource(hung).ok());
  ASSERT_TRUE(router.DefineDatabank("bank", {"hung"}).ok());

  const int64_t start = netmark::MonotonicMicros();
  auto result = router.QueryFederated("bank", ContentQuery(/*timeout_ms=*/100));
  const int64_t elapsed_ms = (netmark::MonotonicMicros() - start) / 1000;
  ASSERT_TRUE(result.ok());
  EXPECT_GE(elapsed_ms, 100);
  EXPECT_LT(elapsed_ms, 5000);
  EXPECT_TRUE(result->hits.empty());
  ASSERT_EQ(result->sources.size(), 1u);
  EXPECT_EQ(result->sources[0].state, SourceState::kTimedOut);
  EXPECT_FALSE(result->complete());
}

TEST(ResilienceTest, MergeOrderIsDeclarationOrderThenDocId) {
  Router router(FastOptions());
  // "second" is declared first; its docids arrive out of order.
  ASSERT_TRUE(router.RegisterSource(HealthySource("second", {5, 1})).ok());
  ASSERT_TRUE(router.RegisterSource(HealthySource("first", {3})).ok());
  ASSERT_TRUE(router.DefineDatabank("bank", {"second", "first"}).ok());

  auto result = router.QueryFederated("bank", ContentQuery(1000));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->hits.size(), 3u);
  EXPECT_EQ(result->hits[0].source, "second");
  EXPECT_EQ(result->hits[0].doc_id, 1);
  EXPECT_EQ(result->hits[1].source, "second");
  EXPECT_EQ(result->hits[1].doc_id, 5);
  EXPECT_EQ(result->hits[2].source, "first");
  EXPECT_EQ(result->hits[2].doc_id, 3);

  // Truncation is deterministic: sort first, then limit.
  query::XdbQuery limited = ContentQuery(1000);
  limited.limit = 2;
  auto truncated = router.QueryFederated("bank", limited);
  ASSERT_TRUE(truncated.ok());
  ASSERT_EQ(truncated->hits.size(), 2u);
  EXPECT_EQ(truncated->hits[0].doc_id, 1);
  EXPECT_EQ(truncated->hits[1].doc_id, 5);
  EXPECT_EQ(truncated->stats.final_hits, 2u);
}

TEST(ResilienceTest, DeadlinePropagatesToRemoteSources) {
  Router router(FastOptions());
  auto transport = std::make_unique<StaticTransport>(ResultsBody({1}));
  StaticTransport* raw = transport.get();
  ASSERT_TRUE(router
                  .RegisterSource(std::make_shared<RemoteSource>(
                      "remote", std::move(transport)))
                  .ok());
  ASSERT_TRUE(router.DefineDatabank("bank", {"remote"}).ok());

  auto result = router.QueryFederated("bank", ContentQuery(/*timeout_ms=*/5000));
  ASSERT_TRUE(result.ok());
  auto paths = raw->paths();
  ASSERT_EQ(paths.size(), 1u);
  // The remote sees the *remaining* budget so it can bound itself too.
  EXPECT_NE(paths[0].find("timeout="), std::string::npos) << paths[0];
}

TEST(ResilienceTest, ConcurrentQueriesKeepIndependentStats) {
  // Regression for the stats race: per-query stats must reflect that query
  // alone even when many queries run concurrently (the old mutable shared
  // Stats was clobbered by whichever query started last).
  Router router(FastOptions());
  ASSERT_TRUE(router.RegisterSource(HealthySource("a", {1, 2})).ok());
  ASSERT_TRUE(router.RegisterSource(HealthySource("b", {3, 4})).ok());
  ASSERT_TRUE(router.DefineDatabank("bank", {"a", "b"}).ok());

  constexpr int kThreads = 4;
  constexpr int kQueriesPerThread = 5;
  std::vector<std::thread> threads;
  std::atomic<int> bad{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&router, &bad] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        auto result = router.QueryFederated("bank", ContentQuery(2000));
        if (!result.ok() || result->stats.sources_queried != 2 ||
            result->stats.raw_hits != 4 || result->stats.final_hits != 4 ||
            result->hits.size() != 4 || !result->complete()) {
          ++bad;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(bad.load(), 0);
  // Cumulative counters saw every query.
  EXPECT_EQ(router.stats().sources_queried,
            static_cast<size_t>(kThreads * kQueriesPerThread * 2));
  EXPECT_EQ(router.stats().final_hits,
            static_cast<size_t>(kThreads * kQueriesPerThread * 4));
}

/// Builds the chaos fleet for the seeded sweep: three fault-injected sources
/// with mixed failure modes, serialized fan-out so the fault dice rolls are a
/// pure function of the seed.
std::unique_ptr<Router> MakeChaosRouter(uint64_t seed) {
  RouterOptions options = FastOptions();
  options.max_parallel_sources = 1;  // deterministic call order
  options.max_retries = 2;
  options.rng_seed = seed;
  auto router = std::make_unique<Router>(options);

  struct SourceSpec {
    const char* name;
    FaultSpec faults;
  };
  FaultSpec mixed;
  mixed.error_rate = 0.3;
  mixed.truncate_rate = 0.2;
  FaultSpec fivehundreds;
  fivehundreds.http_500_rate = 0.5;
  FaultSpec garbage;
  garbage.malformed_rate = 0.25;
  const SourceSpec specs[] = {
      {"mixed", mixed}, {"fivehundreds", fivehundreds}, {"garbage", garbage}};
  std::vector<std::string> names;
  for (size_t i = 0; i < 3; ++i) {
    auto transport = std::make_unique<FaultInjectingTransport>(
        std::make_unique<StaticTransport>(
            ResultsBody({static_cast<int>(i) + 1})),
        specs[i].faults, seed ^ (i + 1));
    EXPECT_TRUE(router
                    ->RegisterSource(std::make_shared<RemoteSource>(
                        specs[i].name, std::move(transport)))
                    .ok());
    names.push_back(specs[i].name);
  }
  EXPECT_TRUE(router->DefineDatabank("chaos", names).ok());
  return router;
}

TEST(ResilienceTest, ChaosSweepIsDeterministicPerSeed) {
  // CI runs this test under many NETMARK_CHAOS_SEED values (see ci.yml); each
  // run replays the same fault schedule twice and the outcomes must agree
  // bit-for-bit. Whatever the faults do, every query returns ok() with a full
  // outcome report.
  uint64_t seed = 1234;
  if (const char* env = std::getenv("NETMARK_CHAOS_SEED")) {
    seed = static_cast<uint64_t>(std::strtoull(env, nullptr, 10));
  }
  auto run = [&](Router* router) {
    std::vector<std::string> trace;
    for (int i = 0; i < 12; ++i) {
      auto result = router->QueryFederated("chaos", ContentQuery(2000));
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (!result.ok()) continue;
      EXPECT_EQ(result->sources.size(), 3u);
      for (const SourceOutcome& s : result->sources) {
        trace.push_back(s.source + ":" +
                        std::string(SourceStateToString(s.state)) + ":" +
                        std::to_string(s.attempts) + ":" +
                        std::to_string(s.hits));
      }
    }
    return trace;
  };
  auto router_a = MakeChaosRouter(seed);
  auto router_b = MakeChaosRouter(seed);
  std::vector<std::string> trace_a = run(router_a.get());
  std::vector<std::string> trace_b = run(router_b.get());
  EXPECT_EQ(trace_a, trace_b)
      << "same seed must replay the same outcome sequence";
}

}  // namespace
}  // namespace netmark::federation
