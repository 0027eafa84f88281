#include "federation/local_source.h"

#include "query/compose.h"
#include "xml/serializer.h"

namespace netmark::federation {

netmark::Result<std::shared_ptr<LocalStoreSource>> LocalStoreSource::OpenOwned(
    std::string name, const std::string& dir) {
  NETMARK_ASSIGN_OR_RETURN(std::unique_ptr<xmlstore::XmlStore> store,
                           xmlstore::XmlStore::Open(dir));
  return std::shared_ptr<LocalStoreSource>(
      new LocalStoreSource(std::move(name), std::move(store)));
}

netmark::Result<std::vector<FederatedHit>> LocalStoreSource::Execute(
    const query::XdbQuery& query, const CallContext& ctx) {
  if (ctx.expired()) {
    return netmark::Status::DeadlineExceeded("local source " + name_ +
                                             ": deadline expired");
  }
  // One snapshot spans the query and the per-hit markup reconstruction so
  // the fragments match the hits even under concurrent ingestion.
  xmlstore::XmlStore::ReadSnapshot snapshot = store_->BeginRead();
  NETMARK_ASSIGN_OR_RETURN(std::vector<query::QueryHit> hits,
                           executor_.Execute(query, snapshot));
  std::vector<FederatedHit> out;
  out.reserve(hits.size());
  for (const query::QueryHit& hit : hits) {
    FederatedHit fh;
    fh.doc_id = hit.doc_id;
    fh.file_name = hit.file_name;
    fh.heading = hit.heading;
    fh.text = hit.text;
    if (hit.context.valid()) {
      // Ship the section body, as /xdb composes it for a remote caller.
      auto body = query::SectionMarkup(*store_, hit.context);
      if (!body.ok()) {
        if (!body.status().IsDataLoss()) return body.status();
        store_->NoteQuarantinedDoc(hit.doc_id);
        continue;
      }
      for (const xml::Document& fragment : *body) {
        fh.markup += xml::Serialize(fragment, fragment.root());
      }
    }
    out.push_back(std::move(fh));
  }
  return out;
}

}  // namespace netmark::federation
