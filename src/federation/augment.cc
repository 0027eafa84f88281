#include "federation/augment.h"

namespace netmark::federation {

std::vector<DomSection> ExtractSections(const xml::Document& doc,
                                        xml::NodeId first, xml::NodeId end,
                                        const xml::NodeTypeConfig& node_types) {
  auto is_context = [&](xml::NodeId n) {
    return doc.kind(n) == xml::NodeKind::kElement &&
           node_types.Classify(doc, n) == xml::NetmarkNodeType::kContext;
  };
  std::vector<DomSection> out;
  for (xml::NodeId top = first; top != xml::kInvalidNode && top != end;
       top = doc.next_sibling(top)) {
    for (xml::NodeId node : doc.Descendants(top)) {
      if (!is_context(node)) continue;
      DomSection section;
      section.heading = doc.JoinedText(node);
      section.first = doc.next_sibling(node);
      xml::NodeId sib = section.first;
      while (sib != xml::kInvalidNode && sib != end && !is_context(sib)) {
        sib = doc.next_sibling(sib);
      }
      section.end = sib;
      out.push_back(std::move(section));
    }
  }
  return out;
}

}  // namespace netmark::federation
