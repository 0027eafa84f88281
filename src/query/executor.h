// XDB query execution over an XmlStore (paper §2.1.4).
//
// Pipeline: plan lookup/compile -> (result-cache consult) -> text-index
// probe -> RowId context walks -> heading filter -> section assembly.
// Content-only queries return whole documents; context queries (with or
// without content) return sections.
//
// Two read-path accelerators hook in here (both optional, both shared
// across executors over the same store):
//   - QueryResultCache: memoizes whole hit lists keyed by canonical query
//     string + commit epoch (docs/query_cache.md).
//   - QueryPlanCache: memoizes parsed/compiled plans keyed by query shape,
//     including the specialized postings-intersection plan for the dominant
//     context+content shape.

#ifndef NETMARK_QUERY_EXECUTOR_H_
#define NETMARK_QUERY_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "observability/metrics.h"
#include "query/query_hit.h"
#include "query/xdb_query.h"
#include "xmlstore/context_walk.h"
#include "xmlstore/xml_store.h"

namespace netmark::query {

struct QueryPlan;
class QueryPlanCache;
class QueryResultCache;

/// Execution knobs.
struct ExecuteOptions {
  /// Use the inverted index (default). When false, falls back to full scans
  /// — the ablation path for bench_fig6.
  bool use_text_index = true;
  /// Resolve context walks through logical-id index joins instead of RowId
  /// links — the ablation path for bench_ablation_rowid.
  bool use_index_joins_for_walks = false;
  /// Trust the specialized plan's postings intersection for context+content
  /// term queries (default). When false the section query also re-matches
  /// the content key against each section's heading + body, as the generic
  /// plan does — the knob the plan-equivalence tests flip.
  bool use_specialized_section_plan = true;
};

/// \brief Evaluates XDB queries against one store.
///
/// Execute is const and carries no per-call state, so one executor instance
/// serves many threads concurrently (the worker-pool serving path). Each
/// call runs under a store ReadSnapshot — taken internally, or passed in by
/// a caller that already holds one. The hits carry every section body they
/// answer with, so composing them needs no snapshot.
class QueryExecutor {
 public:
  explicit QueryExecutor(const xmlstore::XmlStore* store,
                         ExecuteOptions options = {})
      : store_(store), options_(options) {}

  /// Per-call statistics, returned through the optional `stats` out-param
  /// (never stored on the executor — Execute stays thread-safe).
  struct Stats {
    size_t index_probes = 0;
    size_t nodes_walked = 0;
    size_t sections_built = 0;
    /// 1 when this call was answered from the result cache (all other
    /// counters then stay 0 — no execution happened).
    size_t cache_hits = 0;
    /// 1 when the plan came from the plan cache instead of being compiled.
    size_t plan_cache_hits = 0;
    /// Reads that hit a quarantined (checksum-failed) page and were skipped
    /// instead of failing the query; >0 means the answer may be partial.
    size_t quarantined_skips = 0;
  };

  /// Opts into cumulative instrumentation: every Execute then also bumps
  /// netmark_xdb_* counters and observes netmark_xdb_execute_micros on
  /// `registry` (null = back to uninstrumented). Call before concurrent
  /// traffic; the handles are read-only afterwards.
  void BindMetrics(observability::MetricsRegistry* registry);

  /// Consults/fills `cache` around execution (null = no result caching).
  /// The cache MUST be dedicated to this executor's store: keys carry the
  /// store's commit epoch, and epochs of different stores alias. Call
  /// before concurrent traffic.
  void set_result_cache(QueryResultCache* cache) { result_cache_ = cache; }

  /// Reuses compiled plans from `cache` (null = compile per call). Plans
  /// are store-independent, so any executors may share one. Call before
  /// concurrent traffic.
  void set_plan_cache(QueryPlanCache* cache) { plan_cache_ = cache; }

  /// Runs the query under a self-acquired ReadSnapshot; hits are ordered by
  /// (doc_id, position). Do not call while already holding a snapshot on
  /// this thread — use the snapshot overload instead.
  netmark::Result<std::vector<QueryHit>> Execute(const XdbQuery& query,
                                                 Stats* stats = nullptr) const;

  /// Runs the query under a snapshot the caller already holds.
  netmark::Result<std::vector<QueryHit>> Execute(
      const XdbQuery& query, const xmlstore::XmlStore::ReadSnapshot& snapshot,
      Stats* stats = nullptr) const;

 private:
  netmark::Result<std::vector<QueryHit>> ExecuteUnderSnapshot(
      const XdbQuery& query, uint64_t epoch, Stats* stats) const;
  /// Plan lookup/compile (the parse half of the split Execute).
  netmark::Result<std::shared_ptr<const QueryPlan>> GetPlan(
      const XdbQuery& query, Stats& stats) const;
  /// Strategy dispatch (the run half).
  netmark::Result<std::vector<QueryHit>> RunPlan(const QueryPlan& plan,
                                                 const XdbQuery& query,
                                                 Stats& stats) const;
  netmark::Result<std::vector<storage::RowId>> ClauseNodes(
      const textindex::QueryClause& clause, Stats& stats) const;
  /// True when `node` sits under INTENSE markup (emphasis-boosted scoring).
  netmark::Result<bool> InsideIntense(storage::RowId node) const;
  netmark::Result<std::vector<QueryHit>> ContentOnly(
      const textindex::TextQuery& content, int64_t doc_scope,
      Stats& stats) const;
  netmark::Result<std::vector<QueryHit>> SectionQuery(const QueryPlan& plan,
                                                      const XdbQuery& query,
                                                      Stats& stats) const;
  netmark::Result<std::vector<QueryHit>> XPathQuery(const QueryPlan& plan,
                                                    const XdbQuery& query,
                                                    Stats& stats) const;
  netmark::Result<storage::RowId> Walk(storage::RowId start, Stats& stats) const;

  /// Registry handles (all null when unbound): cumulative mirrors of Stats
  /// plus the execute latency histogram.
  struct MetricHandles {
    observability::Counter* executes = nullptr;
    observability::Counter* index_probes = nullptr;
    observability::Counter* nodes_walked = nullptr;
    observability::Counter* sections_built = nullptr;
    observability::Histogram* execute_micros = nullptr;
  };

  const xmlstore::XmlStore* store_;
  ExecuteOptions options_;
  MetricHandles handles_;
  QueryResultCache* result_cache_ = nullptr;
  QueryPlanCache* plan_cache_ = nullptr;
};

}  // namespace netmark::query

#endif  // NETMARK_QUERY_EXECUTOR_H_
