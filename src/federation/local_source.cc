#include "federation/local_source.h"

#include "query/compose.h"

namespace netmark::federation {

netmark::Result<std::shared_ptr<LocalStoreSource>> LocalStoreSource::OpenOwned(
    std::string name, const std::string& dir) {
  NETMARK_ASSIGN_OR_RETURN(std::unique_ptr<xmlstore::XmlStore> store,
                           xmlstore::XmlStore::Open(dir));
  return std::shared_ptr<LocalStoreSource>(
      new LocalStoreSource(std::move(name), std::move(store)));
}

netmark::Result<query::ResultSet> LocalStoreSource::Execute(
    const query::XdbQuery& query, const CallContext& ctx) {
  if (ctx.expired()) {
    return netmark::Status::DeadlineExceeded("local source " + name_ +
                                             ": deadline expired");
  }
  query::QueryExecutor::Stats stats;
  NETMARK_ASSIGN_OR_RETURN(std::vector<query::QueryHit> hits,
                           executor_.Execute(query, &stats));
  return query::ComposeResultSet(query, hits, stats.quarantined_skips);
}

}  // namespace netmark::federation
