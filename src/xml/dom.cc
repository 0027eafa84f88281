#include "xml/dom.h"

#include <cassert>

namespace netmark::xml {

std::string_view NodeKindToString(NodeKind kind) {
  switch (kind) {
    case NodeKind::kDocument:
      return "document";
    case NodeKind::kElement:
      return "element";
    case NodeKind::kText:
      return "text";
    case NodeKind::kComment:
      return "comment";
    case NodeKind::kCData:
      return "cdata";
    case NodeKind::kProcessingInstruction:
      return "pi";
  }
  return "?";
}

Document::Document() { NewNode(NodeKind::kDocument, "", ""); }

NodeId Document::NewNode(NodeKind kind, std::string name, std::string data) {
  Node n;
  n.kind = kind;
  n.name = std::move(name);
  n.data = std::move(data);
  nodes_.push_back(std::move(n));
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Document::CreateElement(std::string name) {
  return NewNode(NodeKind::kElement, std::move(name), "");
}
NodeId Document::CreateText(std::string data) {
  return NewNode(NodeKind::kText, "", std::move(data));
}
NodeId Document::CreateComment(std::string data) {
  return NewNode(NodeKind::kComment, "", std::move(data));
}
NodeId Document::CreateCData(std::string data) {
  return NewNode(NodeKind::kCData, "", std::move(data));
}
NodeId Document::CreateProcessingInstruction(std::string name, std::string data) {
  return NewNode(NodeKind::kProcessingInstruction, std::move(name), std::move(data));
}

void Document::AppendChild(NodeId parent, NodeId child) {
  assert(parent >= 0 && child > 0);
  Node& c = nodes_[child];
  assert(c.parent == kInvalidNode && "child must be detached");
  Node& p = nodes_[parent];
  c.parent = parent;
  c.prev_sibling = p.last_child;
  c.next_sibling = kInvalidNode;
  if (p.last_child != kInvalidNode) {
    nodes_[p.last_child].next_sibling = child;
  } else {
    p.first_child = child;
  }
  p.last_child = child;
}

void Document::InsertBefore(NodeId parent, NodeId child, NodeId before) {
  assert(parent >= 0 && child > 0);
  if (before == kInvalidNode) {
    AppendChild(parent, child);
    return;
  }
  Node& c = nodes_[child];
  assert(c.parent == kInvalidNode && "child must be detached");
  Node& b = nodes_[before];
  assert(b.parent == parent);
  c.parent = parent;
  c.next_sibling = before;
  c.prev_sibling = b.prev_sibling;
  if (b.prev_sibling != kInvalidNode) {
    nodes_[b.prev_sibling].next_sibling = child;
  } else {
    nodes_[parent].first_child = child;
  }
  b.prev_sibling = child;
}

void Document::Detach(NodeId node) {
  Node& n = nodes_[node];
  if (n.parent == kInvalidNode) return;
  Node& p = nodes_[n.parent];
  if (n.prev_sibling != kInvalidNode) {
    nodes_[n.prev_sibling].next_sibling = n.next_sibling;
  } else {
    p.first_child = n.next_sibling;
  }
  if (n.next_sibling != kInvalidNode) {
    nodes_[n.next_sibling].prev_sibling = n.prev_sibling;
  } else {
    p.last_child = n.prev_sibling;
  }
  n.parent = kInvalidNode;
  n.prev_sibling = kInvalidNode;
  n.next_sibling = kInvalidNode;
}

void Document::AddAttribute(NodeId id, std::string name, std::string value) {
  nodes_[id].attributes.push_back(Attribute{std::move(name), std::move(value)});
}

std::string_view Document::GetAttribute(NodeId id, std::string_view name) const {
  for (const Attribute& a : nodes_[id].attributes) {
    if (a.name == name) return a.value;
  }
  return {};
}

bool Document::HasAttribute(NodeId id, std::string_view name) const {
  for (const Attribute& a : nodes_[id].attributes) {
    if (a.name == name) return true;
  }
  return false;
}

void Document::SetAttribute(NodeId id, std::string_view name, std::string value) {
  for (Attribute& a : nodes_[id].attributes) {
    if (a.name == name) {
      a.value = std::move(value);
      return;
    }
  }
  AddAttribute(id, std::string(name), std::move(value));
}

std::vector<NodeId> Document::Children(NodeId id) const {
  std::vector<NodeId> out;
  for (NodeId c = first_child(id); c != kInvalidNode; c = next_sibling(c)) {
    out.push_back(c);
  }
  return out;
}

std::vector<NodeId> Document::ChildElements(NodeId id) const {
  std::vector<NodeId> out;
  for (NodeId c = first_child(id); c != kInvalidNode; c = next_sibling(c)) {
    if (kind(c) == NodeKind::kElement) out.push_back(c);
  }
  return out;
}

NodeId Document::FirstChildElement(NodeId id, std::string_view name) const {
  for (NodeId c = first_child(id); c != kInvalidNode; c = next_sibling(c)) {
    if (kind(c) == NodeKind::kElement && nodes_[c].name == name) return c;
  }
  return kInvalidNode;
}

NodeId Document::DocumentElement() const {
  for (NodeId c = first_child(root()); c != kInvalidNode; c = next_sibling(c)) {
    if (kind(c) == NodeKind::kElement) return c;
  }
  return kInvalidNode;
}

std::string Document::TextContent(NodeId id) const {
  std::string out;
  for (NodeId n : Descendants(id)) {
    if (kind(n) == NodeKind::kText || kind(n) == NodeKind::kCData) {
      out += nodes_[n].data;
    }
  }
  return out;
}

std::string Document::JoinedText(NodeId id) const {
  std::string out;
  for (NodeId n : Descendants(id)) {
    if (kind(n) == NodeKind::kText || kind(n) == NodeKind::kCData) {
      if (!out.empty()) out += ' ';
      out += nodes_[n].data;
    }
  }
  return out;
}

std::string Document::JoinedText(NodeId first, NodeId end) const {
  std::string out;
  for (NodeId n = first; n != kInvalidNode && n != end; n = next_sibling(n)) {
    std::string text = JoinedText(n);
    if (text.empty()) continue;
    if (!out.empty()) out += ' ';
    out += text;
  }
  return out;
}

size_t Document::ApproxBytes() const {
  static const size_t kInline = std::string().capacity();
  auto heap = [](const std::string& s) {
    return s.capacity() > kInline ? s.capacity() + 1 : 0;
  };
  size_t bytes = sizeof(Document) + nodes_.capacity() * sizeof(Node);
  for (const Node& n : nodes_) {
    bytes += heap(n.name) + heap(n.data) +
             n.attributes.capacity() * sizeof(Attribute);
    for (const Attribute& a : n.attributes) bytes += heap(a.name) + heap(a.value);
  }
  return bytes;
}

std::vector<NodeId> Document::Descendants(NodeId id) const {
  std::vector<NodeId> out;
  std::vector<NodeId> stack = {id};
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    out.push_back(n);
    // Push children in reverse so the walk is pre-order left-to-right.
    std::vector<NodeId> kids = Children(n);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  return out;
}

size_t Document::SubtreeSize(NodeId id) const { return Descendants(id).size(); }

int Document::Depth(NodeId id) const {
  int d = 0;
  for (NodeId p = parent(id); p != kInvalidNode; p = parent(p)) ++d;
  return d;
}

NodeId Document::ImportSubtree(const Document& from, NodeId src) {
  NodeId copy;
  const NodeKind k = from.kind(src);
  switch (k) {
    case NodeKind::kElement:
      copy = CreateElement(from.name(src));
      for (const Attribute& a : from.attributes(src)) {
        AddAttribute(copy, a.name, a.value);
      }
      break;
    case NodeKind::kText:
      copy = CreateText(from.data(src));
      break;
    case NodeKind::kComment:
      copy = CreateComment(from.data(src));
      break;
    case NodeKind::kCData:
      copy = CreateCData(from.data(src));
      break;
    case NodeKind::kProcessingInstruction:
      copy = CreateProcessingInstruction(from.name(src), from.data(src));
      break;
    case NodeKind::kDocument:
      // Importing a document node imports its children under a fresh element-less
      // wrapper is meaningless; treat as importing children under a new element.
      copy = CreateElement("imported-document");
      break;
  }
  for (NodeId c = from.first_child(src); c != kInvalidNode; c = from.next_sibling(c)) {
    AppendChild(copy, ImportSubtree(from, c));
  }
  return copy;
}

bool Document::SubtreeEquals(const Document& a, NodeId ida, const Document& b,
                             NodeId idb) {
  if (a.kind(ida) != b.kind(idb)) return false;
  if (a.name(ida) != b.name(idb)) return false;
  if (a.data(ida) != b.data(idb)) return false;
  const auto& attrs_a = a.attributes(ida);
  const auto& attrs_b = b.attributes(idb);
  if (attrs_a.size() != attrs_b.size()) return false;
  for (size_t i = 0; i < attrs_a.size(); ++i) {
    if (attrs_a[i].name != attrs_b[i].name || attrs_a[i].value != attrs_b[i].value) {
      return false;
    }
  }
  NodeId ca = a.first_child(ida);
  NodeId cb = b.first_child(idb);
  while (ca != kInvalidNode && cb != kInvalidNode) {
    if (!SubtreeEquals(a, ca, b, cb)) return false;
    ca = a.next_sibling(ca);
    cb = b.next_sibling(cb);
  }
  return ca == kInvalidNode && cb == kInvalidNode;
}

}  // namespace netmark::xml
