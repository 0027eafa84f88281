// Databanks and the thin query router (paper §2.1.5, Fig 8).
//
// "Integration can be specified (and executed) at the client side by
// specifying databanks. ... Middleware requirements are reduced to needing
// just a thin router capability across the various information sources."
//
// A databank is a named list of sources created by a *declarative* step —
// no schemas, no views, no mappings. The router decomposes each query per
// source capability, pushes down the supported part, and augments the rest.
//
// Resilience layer (DESIGN.md §"Failure semantics"): sources are fanned out
// concurrently under one per-query deadline; transient failures are retried
// with jittered exponential backoff; persistently dead sources are isolated
// behind per-source circuit breakers; and every query returns partial
// results — the hits that arrived plus a per-source outcome report — because
// "a failing source must not take down the whole databank query".

#ifndef NETMARK_FEDERATION_ROUTER_H_
#define NETMARK_FEDERATION_ROUTER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/backoff.h"
#include "common/thread_reaper.h"
#include "federation/augment.h"
#include "federation/circuit_breaker.h"
#include "federation/source.h"
#include "observability/metrics.h"
#include "observability/trace.h"

namespace netmark::federation {

/// A named source list — the whole "integration specification".
struct Databank {
  std::string name;
  std::vector<std::string> source_names;
};

/// Router-wide resilience defaults (overridable per source).
struct RouterOptions {
  /// Worker threads per federated query (clamped to the source count).
  int max_parallel_sources = 4;
  /// Query deadline when the query carries no timeout (0 = unbounded).
  int64_t default_timeout_ms = 30000;
  /// Retries per source beyond the first attempt.
  int max_retries = 2;
  /// Backoff schedule between retries.
  netmark::BackoffPolicy backoff;
  /// Default breaker thresholds for every source.
  CircuitBreakerConfig breaker;
  /// Seed for the backoff jitter (per-source streams are derived from it, so
  /// chaos tests replay identically).
  uint64_t rng_seed = 0x6E65746D61726BULL;
  /// Injectable sleep for deterministic tests (default: real sleep).
  std::function<void(int64_t)> sleep_ms;
};

/// Per-source overrides from the databank configuration.
struct SourcePolicy {
  /// Cap on any single attempt against this source (0 = query deadline only).
  int64_t timeout_ms = 0;
  /// Retries beyond the first attempt (-1 = RouterOptions.max_retries).
  int max_retries = -1;
  /// Breaker thresholds (unset = RouterOptions.breaker).
  std::optional<CircuitBreakerConfig> breaker;
};

// The per-source report is part of the one result contract.
using query::SourceOutcome;
using query::SourceState;
using query::SourceStateToString;

/// Per-query accounting (also kept cumulatively; benches use this).
struct QueryStats {
  size_t sources_queried = 0;
  size_t pushed_down_full = 0;   ///< sources that ran the whole query
  size_t augmented = 0;          ///< sources whose results needed local work
  size_t raw_hits = 0;           ///< hits fetched from sources
  size_t final_hits = 0;         ///< hits after augmentation/merging
  size_t retries = 0;            ///< attempts beyond the first, all sources
  size_t source_failures = 0;    ///< sources ending kFailed
  size_t source_timeouts = 0;    ///< sources ending kTimedOut
  size_t breaker_skips = 0;      ///< sources ending kBreakerOpen
};

/// What a federated query returns: the merged answer — hits, quarantined
/// count and the per-source report, so `complete()` tells a full answer from
/// a degraded one — plus this query's routing stats.
struct FederatedResult : query::ResultSet {
  QueryStats stats;  ///< this query only
};

/// \brief Registry of sources + databanks, and the fan-out query engine.
class Router {
 public:
  Router() : Router(RouterOptions{}) {}
  explicit Router(RouterOptions options);

  /// Re-homes the router's metrics (cumulative query counters, per-source
  /// latency histograms, breaker-state gauges) onto `registry` — the Netmark
  /// facade calls this so one registry serves /metrics for the whole
  /// instance. Must be called before traffic; counts recorded earlier stay
  /// in the private registry and are not carried over. A standalone router
  /// keeps its private registry, so stats() works either way.
  void BindMetrics(observability::MetricsRegistry* registry);
  observability::MetricsRegistry* metrics() const { return metrics_; }

  /// Registers a source (owned by the router) with default resilience policy.
  netmark::Status RegisterSource(std::shared_ptr<Source> source);
  /// Registers a source with per-source resilience overrides.
  netmark::Status RegisterSource(std::shared_ptr<Source> source,
                                 const SourcePolicy& policy);
  /// Declares a databank over registered sources.
  netmark::Status DefineDatabank(const std::string& name,
                                 std::vector<std::string> source_names);

  bool HasDatabank(const std::string& name) const {
    return databanks_.count(name) != 0;
  }
  std::vector<std::string> DatabankNames() const;
  std::vector<std::string> SourceNames() const;
  Source* GetSource(const std::string& name);
  /// The breaker guarding `name` (null for unknown sources).
  CircuitBreaker* GetBreaker(const std::string& name);

  /// Runs `query` against every source of `databank` concurrently under one
  /// deadline, retrying transient failures, and merges the results in
  /// (declaration order, doc_id) order. Errors only on an unknown databank —
  /// source failures degrade to a partial result instead. A source whose own
  /// answer is incomplete (quarantined sections) ends `partial`: a success
  /// for its breaker, but the merged answer is not complete.
  netmark::Result<FederatedResult> QueryFederated(const std::string& databank,
                                                  const query::XdbQuery& query);

  /// Traced variant: per-source spans ("source:NAME") are parented under
  /// `parent_span`. Fan-out jobs take shared ownership of `trace` because a
  /// deadline-abandoned straggler may finish (and end its span) after the
  /// query returns. `trace` may be null (equivalent to the plain overload).
  netmark::Result<FederatedResult> QueryFederated(
      const std::string& databank, const query::XdbQuery& query,
      std::shared_ptr<observability::Trace> trace, int parent_span);

  using Stats = QueryStats;
  /// Cumulative counters across all queries on this router (atomics; late
  /// stragglers of timed-out queries still report in when they finish).
  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<Source> source;
    SourcePolicy policy;
    std::shared_ptr<CircuitBreaker> breaker;
    /// Per-source call latency (netmark_federation_source_micros{source=}).
    observability::Histogram* latency = nullptr;
  };

  /// Registry handles behind Router::Stats — the registry is the single
  /// source of truth; stats() is a thin view over these counters. Shared
  /// with in-flight workers so late stragglers of timed-out queries still
  /// report in when they finish, even after a BindMetrics rebind.
  struct MetricHandles {
    observability::Counter* queries = nullptr;
    observability::Counter* sources_queried = nullptr;
    observability::Counter* pushed_down_full = nullptr;
    observability::Counter* augmented = nullptr;
    observability::Counter* raw_hits = nullptr;
    observability::Counter* final_hits = nullptr;
    observability::Counter* retries = nullptr;
    observability::Counter* source_failures = nullptr;
    observability::Counter* source_timeouts = nullptr;
    observability::Counter* breaker_skips = nullptr;
    observability::Histogram* query_micros = nullptr;
  };

  /// (Re-)resolves every metric handle against metrics_.
  void BindHandles();
  /// Registers the per-source latency histogram + breaker-state gauge.
  void BindSourceMetrics(Entry& entry, const std::string& name);

  RouterOptions options_;
  std::map<std::string, Entry> sources_;
  std::map<std::string, Databank> databanks_;
  /// Private fallback registry so a standalone Router works unwired; the
  /// facade rebinds onto its own registry via BindMetrics().
  std::unique_ptr<observability::MetricsRegistry> owned_metrics_;
  observability::MetricsRegistry* metrics_ = nullptr;
  std::shared_ptr<MetricHandles> handles_;
  std::atomic<uint64_t> query_counter_{0};
  // Last member: joins straggler threads before the registries above die.
  netmark::ThreadReaper reaper_;
};

}  // namespace netmark::federation

#endif  // NETMARK_FEDERATION_ROUTER_H_
