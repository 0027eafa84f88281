// LocalStoreSource: full-capability source backed by an in-process XmlStore.

#ifndef NETMARK_FEDERATION_LOCAL_SOURCE_H_
#define NETMARK_FEDERATION_LOCAL_SOURCE_H_

#include <memory>
#include <string>

#include "federation/source.h"
#include "query/executor.h"
#include "query/plan.h"
#include "query/result_cache.h"
#include "xmlstore/xml_store.h"

namespace netmark::federation {

/// \brief Adapter exposing a NETMARK XML Store as a federated source.
class LocalStoreSource : public Source {
 public:
  /// Wraps a store owned elsewhere (must outlive the source).
  LocalStoreSource(std::string name, const xmlstore::XmlStore* store)
      : name_(std::move(name)), executor_(store) {}

  /// Opens the store at `dir` and owns it for the source's lifetime (the
  /// form declarative databank configs use).
  static netmark::Result<std::shared_ptr<LocalStoreSource>> OpenOwned(
      std::string name, const std::string& dir);

  const std::string& name() const override { return name_; }
  Capabilities capabilities() const override { return Capabilities::Full(); }

  /// Instruments the inner executor (netmark_xdb_* metrics); call before
  /// traffic.
  void BindMetrics(observability::MetricsRegistry* registry) {
    executor_.BindMetrics(registry);
  }

  /// Shares read-path caches with the inner executor; call before traffic.
  /// `results` MUST belong to the same store this source wraps (its keys
  /// carry that store's commit epochs) — the facade wires its service's
  /// caches into the self-registered source here. `plans` is
  /// store-independent and always safe to share.
  void set_caches(query::QueryResultCache* results,
                  query::QueryPlanCache* plans) {
    executor_.set_result_cache(results);
    executor_.set_plan_cache(plans);
  }

  using Source::Execute;
  /// Answers as /xdb composes (query::ComposeResultSet): the section bodies
  /// the executor read, and its quarantined count.
  netmark::Result<query::ResultSet> Execute(const query::XdbQuery& query,
                                           const CallContext& ctx) override;

 private:
  LocalStoreSource(std::string name, std::unique_ptr<xmlstore::XmlStore> owned)
      : name_(std::move(name)), owned_(std::move(owned)), executor_(owned_.get()) {}

  std::string name_;
  std::unique_ptr<xmlstore::XmlStore> owned_;  // null when externally owned
  query::QueryExecutor executor_;
};

}  // namespace netmark::federation

#endif  // NETMARK_FEDERATION_LOCAL_SOURCE_H_
