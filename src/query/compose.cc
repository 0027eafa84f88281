#include "query/compose.h"

#include "xml/parser.h"
#include "xmlstore/context_walk.h"

namespace netmark::query {

netmark::Result<std::vector<xml::Document>> SectionMarkup(
    const xmlstore::XmlStore& store, storage::RowId context) {
  NETMARK_ASSIGN_OR_RETURN(std::vector<storage::RowId> body,
                           xmlstore::SectionContent(store, context));
  std::vector<xml::Document> fragments;
  fragments.reserve(body.size());
  for (storage::RowId node : body) {
    NETMARK_ASSIGN_OR_RETURN(xml::Document fragment, store.ReconstructSubtree(node));
    fragments.push_back(std::move(fragment));
  }
  return fragments;
}

netmark::Result<xml::Document> ComposeResults(const xmlstore::XmlStore& store,
                                              const XdbQuery& query,
                                              const std::vector<QueryHit>& hits) {
  xml::Document out;
  xml::NodeId results = out.CreateElement("results");
  out.AddAttribute(results, "query", query.ToQueryString());
  out.AppendChild(out.root(), results);

  size_t emitted = 0;
  size_t quarantined = 0;
  for (const QueryHit& hit : hits) {
    // Read the section body BEFORE emitting the <result> element: a hit
    // whose section touches a quarantined (checksum-failed) page is dropped
    // whole — never a silently truncated section — and the result set is
    // marked partial below.
    std::vector<xml::Document> fragments;
    if (hit.context.valid()) {
      auto body = SectionMarkup(store, hit.context);
      if (!body.ok()) {
        if (!body.status().IsDataLoss()) return body.status();
        ++quarantined;
        store.NoteQuarantinedDoc(hit.doc_id);
        continue;
      }
      fragments = std::move(*body);
    }

    xml::NodeId result = out.CreateElement("result");
    out.AddAttribute(result, "doc", hit.file_name);
    out.AddAttribute(result, "docid", std::to_string(hit.doc_id));
    out.AppendChild(results, result);
    ++emitted;

    if (!hit.context.valid()) {
      if (!hit.markup.empty()) {
        // XPath hit: embed the selected fragment.
        xml::NodeId content = out.CreateElement("content");
        out.AppendChild(result, content);
        auto fragment = xml::ParseXml(hit.markup);
        if (fragment.ok()) {
          for (xml::NodeId c = fragment->first_child(fragment->root());
               c != xml::kInvalidNode; c = fragment->next_sibling(c)) {
            out.AppendChild(content, out.ImportSubtree(*fragment, c));
          }
        } else {
          out.AppendChild(content, out.CreateText(hit.text));
        }
      }
      // Document-level hit (content-only query): a reference plus its
      // snippet (section heading + matched text slice) when available.
      if (!hit.heading.empty() || !hit.text.empty()) {
        xml::NodeId snippet = out.CreateElement("snippet");
        if (!hit.heading.empty()) out.AddAttribute(snippet, "section", hit.heading);
        if (!hit.text.empty()) {
          out.AppendChild(snippet, out.CreateText(hit.text));
        }
        out.AppendChild(result, snippet);
      }
      continue;
    }
    xml::NodeId context = out.CreateElement("context");
    out.AppendChild(context, out.CreateText(hit.heading));
    out.AppendChild(result, context);

    xml::NodeId content = out.CreateElement("content");
    out.AppendChild(result, content);
    for (const xml::Document& fragment : fragments) {
      for (xml::NodeId child = fragment.first_child(fragment.root());
           child != xml::kInvalidNode; child = fragment.next_sibling(child)) {
        out.AppendChild(content, out.ImportSubtree(fragment, child));
      }
    }
  }
  out.AddAttribute(results, "count", std::to_string(emitted));
  if (quarantined > 0) {
    // Same contract as federated partial results: the caller always learns
    // what it did NOT get (here: sections lost to disk corruption).
    out.AddAttribute(results, "complete", "false");
    out.AddAttribute(results, "quarantined", std::to_string(quarantined));
  }
  return out;
}

}  // namespace netmark::query
