// Compiled XDB query plans.
//
// Execute used to re-interpret every request: parse the context/content
// search keys, parse the XPath, and pick a strategy, per call. This module
// splits that work out into an immutable QueryPlan built once per query
// *shape* (the context/content/xpath triple — doc scope and limit stay
// runtime parameters), cached and shared across threads.
//
// The planner also marks the dominant production shape —
// `Context=X&Content=Y` with plain term keys — as kSectionSpecialized. The
// executor runs it through the same section query as kSection: each
// content term's postings are walked to their governing CONTEXT rows and
// intersected at section granularity. That intersection already proves the
// content predicate, so the only step a specialized plan skips is
// re-matching the content key against each section's heading + body.
//
// Plans are store-independent (parsed search keys and compiled XPath only),
// so one plan cache may serve executors over different stores.

#ifndef NETMARK_QUERY_PLAN_H_
#define NETMARK_QUERY_PLAN_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/result.h"
#include "observability/metrics.h"
#include "query/xdb_query.h"
#include "textindex/text_query.h"
#include "xslt/xpath.h"

namespace netmark::query {

/// \brief One compiled query: parsed keys plus the chosen strategy.
/// Immutable after construction; share freely across threads.
struct QueryPlan {
  enum class Kind {
    kContentOnly,         ///< document-granularity content search
    kSection,             ///< generic seed + verify section search
    kSectionSpecialized,  ///< kSection without the body re-match
    kXPath,               ///< XPath over reconstructed documents
  };

  Kind kind = Kind::kContentOnly;
  textindex::TextQuery context_query;
  textindex::TextQuery content_query;
  /// Compiled path expression (kXPath only).
  std::shared_ptr<const xslt::XPath> xpath;
};

/// \brief Compiles `query` into a plan. Fails on XPath syntax errors and on
/// the Context+XPath combination (which has no execution strategy).
netmark::Result<std::shared_ptr<const QueryPlan>> BuildQueryPlan(
    const XdbQuery& query);

/// \brief The plan-cache key: the query fields that determine the compiled
/// plan (context, content, xpath), independent of doc scope/limit/xslt.
std::string QueryPlanShapeKey(const XdbQuery& query);

/// \brief Entry-bounded LRU cache of compiled plans, keyed by shape.
/// Plans never go stale (they hold no store state), so there is no epoch in
/// the key; bounded only to keep adversarial query streams from growing it.
/// Thread-safe.
class QueryPlanCache {
 public:
  struct Options {
    size_t max_entries = 256;
    bool enabled = true;
  };

  QueryPlanCache() = default;
  explicit QueryPlanCache(Options options) : options_(options) {}

  /// Replaces the options and clears the cache (call before traffic).
  void Configure(Options options);

  bool enabled() const;

  std::shared_ptr<const QueryPlan> Lookup(const std::string& shape_key);
  void Insert(const std::string& shape_key,
              std::shared_ptr<const QueryPlan> plan);

  struct Snapshot {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
  };
  Snapshot snapshot() const;

  /// Publishes netmark_query_plan_cache_{hits,misses}_total counters and the
  /// netmark_query_plan_cache_entries gauge on `registry`.
  void BindMetrics(observability::MetricsRegistry* registry);

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const QueryPlan> plan;
  };

  mutable std::mutex mu_;
  Options options_;
  std::list<Entry> lru_;  // most-recently-used first
  std::map<std::string, std::list<Entry>::iterator, std::less<>> index_;
  uint64_t hit_count_ = 0;
  uint64_t miss_count_ = 0;
  uint64_t evict_count_ = 0;

  struct MetricHandles {
    observability::Counter* hits = nullptr;
    observability::Counter* misses = nullptr;
    observability::Gauge* entries = nullptr;
  } handles_;
};

}  // namespace netmark::query

#endif  // NETMARK_QUERY_PLAN_H_
