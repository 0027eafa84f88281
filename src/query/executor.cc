#include "query/executor.h"

#include <algorithm>
#include <map>
#include <set>

#include "observability/thread_trace.h"
#include "query/plan.h"
#include "query/result_cache.h"
#include "xslt/xpath.h"

namespace netmark::query {

using storage::RowId;
using textindex::QueryClause;
using textindex::TextQuery;
using xmlstore::NodeView;

// Quarantine containment: a read that lands on a checksum-failed page
// returns Status::DataLoss. Query execution skips the affected node or
// document (counting it in Stats::quarantined_skips, which /xdb and the
// local databank source add to their result set's quarantined count) instead of failing the whole query; any other
// error still propagates. `on_skip` must exit the enclosing scope
// (continue/break).
#define NETMARK_SKIP_ON_DATALOSS(lhs, expr, stats, on_skip) \
  auto lhs##_or = (expr);                                   \
  if (!lhs##_or.ok()) {                                     \
    if (lhs##_or.status().IsDataLoss()) {                   \
      ++(stats).quarantined_skips;                          \
      on_skip;                                              \
    }                                                       \
    return lhs##_or.status();                               \
  }                                                         \
  auto lhs = std::move(*lhs##_or);

// Text-index candidate verification: postings are writer-latest (docs/
// mvcc.md), so a seed RowId may point at a row that is deleted, not yet
// committed, or simply invisible at this snapshot's epoch — the store
// answers NotFound, and the candidate is silently dropped (it is not data
// loss, just MVCC staleness). DataLoss still counts as a quarantine skip.
#define NETMARK_SKIP_STALE_OR_DATALOSS(lhs, expr, stats, on_skip) \
  auto lhs##_or = (expr);                                         \
  if (!lhs##_or.ok()) {                                           \
    if (lhs##_or.status().IsNotFound()) {                         \
      on_skip;                                                    \
    }                                                             \
    if (lhs##_or.status().IsDataLoss()) {                         \
      ++(stats).quarantined_skips;                                \
      on_skip;                                                    \
    }                                                             \
    return lhs##_or.status();                                     \
  }                                                               \
  auto lhs = std::move(*lhs##_or);

namespace {

/// The node an XPath selected, copied into a document of its own (selecting
/// the document itself copies its children).
std::shared_ptr<const xml::Document> CopyNode(const xml::Document& doc,
                                              xml::NodeId node) {
  auto copy = std::make_shared<xml::Document>();
  xml::NodeId first = node;
  xml::NodeId end = doc.next_sibling(node);
  if (node == doc.root()) {
    first = doc.first_child(node);
    end = xml::kInvalidNode;
  }
  for (xml::NodeId n = first; n != xml::kInvalidNode && n != end;
       n = doc.next_sibling(n)) {
    copy->AppendChild(copy->root(), copy->ImportSubtree(doc, n));
  }
  return copy;
}

}  // namespace

netmark::Result<std::vector<RowId>> QueryExecutor::ClauseNodes(
    const QueryClause& clause, Stats& stats) const {
  ++stats.index_probes;
  if (!options_.use_text_index) {
    TextQuery single;
    single.clauses.push_back(clause);
    return store_->TextScanMatch(single);
  }
  std::vector<textindex::DocKey> keys;
  switch (clause.kind) {
    case QueryClause::Kind::kTerm:
      keys = store_->text_index().LookupTerm(clause.words[0]);
      break;
    case QueryClause::Kind::kPhrase:
      keys = store_->text_index().MatchPhrase(clause.words);
      break;
    case QueryClause::Kind::kPrefix:
      keys = store_->text_index().MatchPrefix(clause.words[0]);
      break;
  }
  std::vector<RowId> out;
  out.reserve(keys.size());
  for (textindex::DocKey key : keys) out.push_back(RowId::Unpack(key));
  return out;
}

netmark::Result<RowId> QueryExecutor::Walk(RowId start, Stats& stats) const {
  ++stats.nodes_walked;
  if (options_.use_index_joins_for_walks) {
    return xmlstore::FindGoverningContextViaIndex(*store_, start);
  }
  return xmlstore::FindGoverningContext(*store_, start);
}

netmark::Result<bool> QueryExecutor::InsideIntense(RowId node) const {
  // A text node "is emphasized" when an enclosing element within a few
  // parent hops is INTENSE-typed (<b>term</b> nests at most a couple of
  // levels in practice).
  RowId cur = node;
  for (int hop = 0; hop < 4; ++hop) {
    NETMARK_ASSIGN_OR_RETURN(NodeView rec, store_->ReadNode(cur));
    if (rec.node_type == xml::NetmarkNodeType::kIntense) return true;
    if (!rec.parent_rowid.valid()) return false;
    cur = rec.parent_rowid;
  }
  return false;
}

netmark::Result<std::vector<QueryHit>> QueryExecutor::ContentOnly(
    const TextQuery& content, int64_t doc_scope, Stats& stats) const {
  if (content.empty()) return std::vector<QueryHit>{};

  // Per clause: matched nodes -> the documents containing them; then AND
  // across clauses at document granularity ("all documents that contain the
  // term", paper §2.1.3). Scores accumulate per matching node, with INTENSE
  // (emphasis) matches counting double.
  std::set<int64_t> docs;
  std::map<int64_t, double> scores;
  std::map<int64_t, RowId> first_match;  // snippet anchor per document
  bool first = true;
  for (const QueryClause& clause : content.clauses) {
    NETMARK_ASSIGN_OR_RETURN(std::vector<RowId> nodes, ClauseNodes(clause, stats));
    std::set<int64_t> clause_docs;
    for (RowId id : nodes) {
      NETMARK_SKIP_STALE_OR_DATALOSS(rec, store_->ReadNode(id), stats, continue);
      if (doc_scope != 0 && rec.doc_id != doc_scope) continue;
      clause_docs.insert(rec.doc_id);
      first_match.emplace(rec.doc_id, id);
      bool intense = false;
      auto intense_or = InsideIntense(id);
      if (intense_or.ok()) {
        intense = *intense_or;
      } else if (!intense_or.status().IsDataLoss()) {
        return intense_or.status();
      }  // quarantined ancestor: score without the emphasis boost
      scores[rec.doc_id] += intense ? 2.0 : 1.0;
    }
    if (first) {
      docs = std::move(clause_docs);
      first = false;
    } else {
      std::set<int64_t> merged;
      std::set_intersection(docs.begin(), docs.end(), clause_docs.begin(),
                            clause_docs.end(), std::inserter(merged, merged.end()));
      docs = std::move(merged);
    }
    if (docs.empty()) break;
  }

  std::vector<QueryHit> hits;
  for (int64_t doc_id : docs) {
    NETMARK_SKIP_ON_DATALOSS(info, store_->GetDocumentInfo(doc_id), stats, {
      store_->NoteQuarantinedDoc(doc_id);
      continue;
    });
    QueryHit hit;
    hit.doc_id = doc_id;
    hit.file_name = info.file_name;
    hit.score = scores[doc_id];
    // Snippet: the heading of the section the (first) match sits in, plus a
    // truncated slice of the matching node's text — enough for a result
    // list. Assembly is best-effort: a quarantined page costs the snippet,
    // not the hit.
    auto anchor = first_match.find(doc_id);
    if (anchor != first_match.end()) {
      bool snippet_loss = false;
      auto ctx = Walk(anchor->second, stats);
      if (!ctx.ok() && !ctx.status().IsDataLoss()) return ctx.status();
      if (ctx.ok() && ctx->valid()) {
        auto heading = store_->SubtreeText(*ctx);
        if (!heading.ok() && !heading.status().IsDataLoss()) {
          return heading.status();
        }
        if (heading.ok()) hit.heading = std::move(*heading);
        snippet_loss |= !heading.ok();
      }
      auto rec = store_->ReadNode(anchor->second);
      if (!rec.ok() && !rec.status().IsDataLoss()) return rec.status();
      if (rec.ok()) {
        constexpr size_t kSnippetChars = 160;
        hit.text = std::string(rec->node_data.substr(0, kSnippetChars));
      }
      snippet_loss |= !ctx.ok() || !rec.ok();
      if (snippet_loss) {
        ++stats.quarantined_skips;
        store_->NoteQuarantinedDoc(doc_id);
      }
    }
    hits.push_back(std::move(hit));
  }
  std::stable_sort(hits.begin(), hits.end(), [](const QueryHit& a, const QueryHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.doc_id < b.doc_id;
  });
  return hits;
}

netmark::Result<std::vector<QueryHit>> QueryExecutor::SectionQuery(
    const QueryPlan& plan, const XdbQuery& query, Stats& stats) const {
  const TextQuery& context_query = plan.context_query;
  if (context_query.empty()) return std::vector<QueryHit>{};

  // Candidate contexts: sections whose governing heading we must verify.
  // With a content key, candidates come from content hits; otherwise from
  // hits on the heading text itself.
  std::set<uint64_t> candidates;  // packed context RowIds
  const TextQuery& content_query = plan.content_query;
  const TextQuery& seed = query.has_content() ? content_query : context_query;

  bool first = true;
  for (const QueryClause& clause : seed.clauses) {
    NETMARK_ASSIGN_OR_RETURN(std::vector<RowId> nodes, ClauseNodes(clause, stats));
    std::set<uint64_t> clause_contexts;
    for (RowId node : nodes) {
      NETMARK_SKIP_STALE_OR_DATALOSS(rec, store_->ReadNode(node), stats, continue);
      if (query.doc_id != 0 && rec.doc_id != query.doc_id) continue;
      NETMARK_SKIP_ON_DATALOSS(ctx, Walk(node, stats), stats, continue);
      if (ctx.valid()) clause_contexts.insert(ctx.Pack());
    }
    if (first) {
      candidates = std::move(clause_contexts);
      first = false;
    } else {
      std::set<uint64_t> merged;
      std::set_intersection(candidates.begin(), candidates.end(),
                            clause_contexts.begin(), clause_contexts.end(),
                            std::inserter(merged, merged.end()));
      candidates = std::move(merged);
    }
    if (candidates.empty()) break;
  }

  // With a content key, the *section body* (or heading) must satisfy it.
  // The specialized plan skips that re-match: its candidates survived the
  // intersection of every content term's sections, which already proves it.
  const bool verify_content =
      query.has_content() &&
      !(plan.kind == QueryPlan::Kind::kSectionSpecialized &&
        options_.use_specialized_section_plan);

  // Verify headings and assemble sections. A candidate whose heading does
  // not match is dropped before its content run is walked, so its body is
  // never read (docs/durability.md: a quarantined page under a rejected
  // heading leaves the answer complete). A kept section's body is read once,
  // into the DOM the hit carries: the re-match, the result cache and
  // composition all use it.
  std::vector<std::pair<std::pair<int64_t, int64_t>, QueryHit>> ordered;
  for (uint64_t packed : candidates) {
    RowId ctx = RowId::Unpack(packed);
    NETMARK_SKIP_ON_DATALOSS(built, xmlstore::BuildSection(*store_, ctx, &context_query),
                             stats, continue);
    if (!built) continue;
    xmlstore::Section& section = *built;
    Body body{{Fragment::Whole(
        std::make_shared<const xml::Document>(std::move(section.body)))}};
    if (verify_content && !SectionMatches(content_query, section.heading, body)) {
      continue;
    }
    ++stats.sections_built;
    NETMARK_SKIP_ON_DATALOSS(info, store_->GetDocumentInfo(section.doc_id),
                             stats, {
                               store_->NoteQuarantinedDoc(section.doc_id);
                               continue;
                             });
    QueryHit hit;
    hit.doc_id = section.doc_id;
    hit.file_name = info.file_name;
    hit.context = ctx;
    hit.heading = std::move(section.heading);
    hit.body = std::move(body);
    ordered.push_back(
        {{section.doc_id, section.context_node_id}, std::move(hit)});
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<QueryHit> hits;
  hits.reserve(ordered.size());
  for (auto& [key, hit] : ordered) hits.push_back(std::move(hit));
  return hits;
}

netmark::Result<std::vector<QueryHit>> QueryExecutor::XPathQuery(
    const QueryPlan& plan, const XdbQuery& query, Stats& stats) const {
  // Candidate documents: content-key pre-selection when given, else the doc
  // scope, else the whole collection (XPath has no index; the content key is
  // how users keep this selective).
  std::vector<int64_t> docs;
  if (query.has_content()) {
    NETMARK_ASSIGN_OR_RETURN(
        std::vector<QueryHit> doc_hits,
        ContentOnly(plan.content_query, query.doc_id, stats));
    for (const QueryHit& hit : doc_hits) docs.push_back(hit.doc_id);
    std::sort(docs.begin(), docs.end());
  } else if (query.doc_id != 0) {
    docs.push_back(query.doc_id);
  } else {
    NETMARK_ASSIGN_OR_RETURN(std::vector<xmlstore::DocRecord> all,
                             store_->ListDocuments());
    for (const auto& rec : all) docs.push_back(rec.doc_id);
  }

  std::vector<QueryHit> hits;
  for (int64_t doc_id : docs) {
    NETMARK_SKIP_ON_DATALOSS(info, store_->GetDocumentInfo(doc_id), stats, {
      store_->NoteQuarantinedDoc(doc_id);
      continue;
    });
    NETMARK_SKIP_ON_DATALOSS(doc, store_->Reconstruct(doc_id), stats, {
      store_->NoteQuarantinedDoc(doc_id);
      continue;
    });
    for (xml::NodeId node : plan.xpath->SelectNodes(doc, doc.root())) {
      QueryHit hit;
      hit.doc_id = doc_id;
      hit.file_name = info.file_name;
      hit.text = doc.JoinedText(node);
      hit.body = Body{{Fragment::Whole(CopyNode(doc, node))}};
      hits.push_back(std::move(hit));
    }
  }
  return hits;
}

void QueryExecutor::BindMetrics(observability::MetricsRegistry* registry) {
  if (registry == nullptr) {
    handles_ = MetricHandles{};
    return;
  }
  handles_.executes = registry->GetCounter("netmark_xdb_executes_total");
  handles_.index_probes = registry->GetCounter("netmark_xdb_index_probes_total");
  handles_.nodes_walked = registry->GetCounter("netmark_xdb_nodes_walked_total");
  handles_.sections_built =
      registry->GetCounter("netmark_xdb_sections_built_total");
  handles_.execute_micros = registry->GetHistogram("netmark_xdb_execute_micros");
}

netmark::Result<std::vector<QueryHit>> QueryExecutor::Execute(
    const XdbQuery& query, Stats* stats) const {
  xmlstore::XmlStore::ReadSnapshot snapshot = store_->BeginRead();
  return ExecuteUnderSnapshot(query, snapshot.epoch(), stats);
}

netmark::Result<std::vector<QueryHit>> QueryExecutor::Execute(
    const XdbQuery& query, const xmlstore::XmlStore::ReadSnapshot& snapshot,
    Stats* stats) const {
  // The caller's snapshot already pins the view (and supplies the commit
  // epoch the result cache keys on); nothing to acquire. Taking the
  // parameter (rather than a bare flag) makes "I hold a snapshot" a
  // compile-time claim at every call site.
  return ExecuteUnderSnapshot(query, snapshot.epoch(), stats);
}

netmark::Result<std::shared_ptr<const QueryPlan>> QueryExecutor::GetPlan(
    const XdbQuery& query, Stats& stats) const {
  if (plan_cache_ == nullptr) return BuildQueryPlan(query);
  std::string shape = QueryPlanShapeKey(query);
  if (std::shared_ptr<const QueryPlan> plan = plan_cache_->Lookup(shape)) {
    stats.plan_cache_hits = 1;
    return plan;
  }
  NETMARK_ASSIGN_OR_RETURN(std::shared_ptr<const QueryPlan> plan,
                           BuildQueryPlan(query));
  plan_cache_->Insert(shape, plan);
  return plan;
}

netmark::Result<std::vector<QueryHit>> QueryExecutor::RunPlan(
    const QueryPlan& plan, const XdbQuery& query, Stats& stats) const {
  switch (plan.kind) {
    case QueryPlan::Kind::kXPath:
      return XPathQuery(plan, query, stats);
    case QueryPlan::Kind::kSectionSpecialized:
    case QueryPlan::Kind::kSection:
      return SectionQuery(plan, query, stats);
    case QueryPlan::Kind::kContentOnly:
      break;
  }
  return ContentOnly(plan.content_query, query.doc_id, stats);
}

netmark::Result<std::vector<QueryHit>> QueryExecutor::ExecuteUnderSnapshot(
    const XdbQuery& query, uint64_t epoch, Stats* stats) const {
  Stats local;
  observability::ScopedTimer timer(handles_.execute_micros);
  if (query.empty()) {
    return netmark::Status::InvalidArgument(
        "XDB query needs a Context, Content or XPath key");
  }

  // Result-cache consult: the canonical query string + the snapshot's
  // commit epoch identify the answer exactly (a commit bumps the epoch, so
  // stale entries can never be reached — no invalidation locking).
  std::string cache_key;
  const bool use_cache = result_cache_ != nullptr && result_cache_->enabled();
  if (use_cache) {
    cache_key = query.ToQueryString();
    // The probe rides whatever trace the serving thread bound (inert when
    // untraced) — cache cost shows up as its own span, not folded into
    // "execute".
    observability::ScopedSpan probe(observability::CurrentThreadTrace(),
                                    "cache_probe",
                                    observability::CurrentThreadSpan());
    if (QueryResultCache::HitsPtr cached =
            result_cache_->Lookup(cache_key, epoch)) {
      probe.Annotate("outcome", "hit");
      local.cache_hits = 1;
      if (handles_.executes != nullptr) handles_.executes->Increment();
      if (stats != nullptr) *stats = local;
      return *cached;
    }
    probe.Annotate("outcome", "miss");
  }

  NETMARK_ASSIGN_OR_RETURN(std::shared_ptr<const QueryPlan> plan,
                           GetPlan(query, local));
  NETMARK_ASSIGN_OR_RETURN(std::vector<QueryHit> hits,
                           RunPlan(*plan, query, local));
  if (query.limit != 0 && hits.size() > query.limit) {
    hits.resize(query.limit);
  }
  // An answer with quarantine skips is not cached: a later hit would report
  // no skips, and the loss would read as a complete answer.
  if (use_cache && local.quarantined_skips == 0) {
    result_cache_->Insert(
        cache_key, epoch,
        std::make_shared<const std::vector<QueryHit>>(hits));
  }
  if (handles_.executes != nullptr) {
    handles_.executes->Increment();
    handles_.index_probes->Increment(local.index_probes);
    handles_.nodes_walked->Increment(local.nodes_walked);
    handles_.sections_built->Increment(local.sections_built);
  }
  if (stats != nullptr) *stats = local;
  return hits;
}

}  // namespace netmark::query
