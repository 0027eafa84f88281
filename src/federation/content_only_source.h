// ContentOnlySource: a deliberately limited source modeling systems like the
// NASA Lessons Learned Information Server, which "allows only 'Content
// search' kinds of queries" (paper §2.1.5). The router must augment context
// clauses itself from the returned documents.

#ifndef NETMARK_FEDERATION_CONTENT_ONLY_SOURCE_H_
#define NETMARK_FEDERATION_CONTENT_ONLY_SOURCE_H_

#include <memory>
#include <string>
#include <vector>

#include "federation/source.h"
#include "xml/dom.h"

namespace netmark::federation {

/// \brief Keyword-search-only document server.
///
/// Documents are held as upmarked XML, but the query interface exposes only
/// single-/multi-term content matching over the flat text and returns whole
/// documents — it cannot name the section a match sits in, so the router
/// augments context clauses from the returned DOM.
class ContentOnlySource : public Source {
 public:
  explicit ContentOnlySource(std::string name) : name_(std::move(name)) {}

  /// Adds a document (takes the upmarked DOM; every hit on it shares it).
  void AddDocument(const std::string& file_name, xml::Document doc);

  const std::string& name() const override { return name_; }
  Capabilities capabilities() const override { return Capabilities::ContentOnly(); }
  using Source::Execute;
  /// Each matching document's hit carries the whole document as its body.
  netmark::Result<query::ResultSet> Execute(const query::XdbQuery& query,
                                           const CallContext& ctx) override;

  size_t document_count() const { return docs_.size(); }

 private:
  struct Doc {
    int64_t id;
    std::string file_name;
    std::string text;  // space-joined text for matching
    std::shared_ptr<const xml::Document> dom;
  };
  std::string name_;
  std::vector<Doc> docs_;
};

}  // namespace netmark::federation

#endif  // NETMARK_FEDERATION_CONTENT_ONLY_SOURCE_H_
