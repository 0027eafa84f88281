#include "federation/content_only_source.h"

#include "textindex/text_query.h"

namespace netmark::federation {

void ContentOnlySource::AddDocument(const std::string& file_name,
                                    xml::Document doc) {
  Doc d;
  d.id = static_cast<int64_t>(docs_.size()) + 1;
  d.file_name = file_name;
  d.text = doc.JoinedText(doc.root());
  d.dom = std::make_shared<const xml::Document>(std::move(doc));
  docs_.push_back(std::move(d));
}

netmark::Result<query::ResultSet> ContentOnlySource::Execute(
    const query::XdbQuery& query, const CallContext& ctx) {
  if (ctx.expired()) {
    return netmark::Status::DeadlineExceeded("content-only source " + name_ +
                                             ": deadline expired");
  }
  // A content-only server ignores any context clause entirely; it matches
  // keywords (no phrase support: phrases degrade to their words — the router
  // re-verifies after augmentation).
  query::ResultSet out;
  if (query.content.empty()) return out;
  textindex::TextQuery parsed = textindex::ParseTextQuery(query.content);
  // Degrade phrases to conjunctions of terms (capability limitation).
  textindex::TextQuery degraded;
  for (const textindex::QueryClause& clause : parsed.clauses) {
    for (const std::string& word : clause.words) {
      textindex::QueryClause term;
      term.kind = textindex::QueryClause::Kind::kTerm;
      term.words = {word};
      degraded.clauses.push_back(std::move(term));
    }
  }
  for (const Doc& doc : docs_) {
    if (!textindex::Matches(degraded, doc.text)) continue;
    query::ResultHit hit;
    hit.doc_id = doc.id;
    hit.file_name = doc.file_name;
    hit.body = query::Body{{query::Fragment::Whole(doc.dom)}};
    out.hits.push_back(std::move(hit));
  }
  return out;
}

}  // namespace netmark::federation
