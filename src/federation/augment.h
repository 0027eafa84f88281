// Query augmentation helpers: client-side section extraction over the
// document DOM returned by capability-limited sources.

#ifndef NETMARK_FEDERATION_AUGMENT_H_
#define NETMARK_FEDERATION_AUGMENT_H_

#include <string>
#include <vector>

#include "xml/dom.h"
#include "xml/node_type_config.h"

namespace netmark::federation {

/// A section located in a fetched document (DOM-level, no store involved).
struct DomSection {
  std::string heading;  ///< heading text, text nodes joined by spaces
  /// The content run: `first` up to, not including, `end` (the next heading
  /// sibling, or kInvalidNode at the end of the sibling run). Its text is
  /// xml::Document::JoinedText(first, end), as for a section the store reads.
  xml::NodeId first = xml::kInvalidNode;
  xml::NodeId end = xml::kInvalidNode;
};

/// \brief Finds every CONTEXT-classified element in the sibling run
/// [`first`, `end`) of `doc` and their descendants, and assembles each one's
/// section (following siblings until the next CONTEXT sibling or `end`) — the
/// same walk the XML store performs, but over a transient DOM.
std::vector<DomSection> ExtractSections(
    const xml::Document& doc, xml::NodeId first, xml::NodeId end,
    const xml::NodeTypeConfig& node_types = xml::NodeTypeConfig::Default());

/// \brief The sections of the whole of `doc`.
inline std::vector<DomSection> ExtractSections(
    const xml::Document& doc,
    const xml::NodeTypeConfig& node_types = xml::NodeTypeConfig::Default()) {
  return ExtractSections(doc, doc.first_child(doc.root()), xml::kInvalidNode,
                         node_types);
}

}  // namespace netmark::federation

#endif  // NETMARK_FEDERATION_AUGMENT_H_
