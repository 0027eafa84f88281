// Arena-based XML document object model.
//
// Nodes live in a flat arena owned by the Document and are addressed by
// NodeId. The tree is linked with parent / first-child / next-sibling /
// prev-sibling pointers — deliberately the same navigation structure the
// NETMARK XML Store persists as PARENTROWID / SIBLINGID columns (paper
// Fig 5), so an in-memory walk and a stored walk are step-for-step
// equivalent.

#ifndef NETMARK_XML_DOM_H_
#define NETMARK_XML_DOM_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace netmark::xml {

/// Index of a node within its Document's arena.
using NodeId = int32_t;
/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = -1;

/// Structural kind of a DOM node.
enum class NodeKind : uint8_t {
  kDocument,               ///< The (single) document root.
  kElement,                ///< `<name attr="...">...</name>`
  kText,                   ///< Character data.
  kComment,                ///< `<!-- ... -->`
  kCData,                  ///< `<![CDATA[ ... ]]>`
  kProcessingInstruction,  ///< `<?name data?>`
};

std::string_view NodeKindToString(NodeKind kind);

/// One element attribute.
struct Attribute {
  std::string name;
  std::string value;
};

/// \brief A parsed XML/HTML document: a node arena plus tree links.
///
/// All mutation goes through the Document so links stay consistent. NodeIds
/// are stable for the lifetime of the Document (nodes are never compacted).
class Document {
 public:
  /// Creates an empty document containing only the document root node.
  Document();

  Document(const Document&) = default;
  Document(Document&&) noexcept = default;
  Document& operator=(const Document&) = default;
  Document& operator=(Document&&) noexcept = default;

  /// The document root (kind kDocument); id 0 by construction.
  NodeId root() const { return 0; }
  /// Number of nodes in the arena (including the root).
  size_t size() const { return nodes_.size(); }

  // --- Node construction (detached; attach with AppendChild etc.) ---
  NodeId CreateElement(std::string name);
  NodeId CreateText(std::string data);
  NodeId CreateComment(std::string data);
  NodeId CreateCData(std::string data);
  NodeId CreateProcessingInstruction(std::string name, std::string data);

  // --- Tree mutation ---
  /// Appends `child` (which must be detached) as the last child of `parent`.
  void AppendChild(NodeId parent, NodeId child);
  /// Inserts detached `child` before `before` (a child of `parent`).
  void InsertBefore(NodeId parent, NodeId child, NodeId before);
  /// Unlinks `node` from its parent; the node and its subtree stay alive
  /// (the arena never frees) but become unreachable from the root.
  void Detach(NodeId node);

  // --- Accessors ---
  NodeKind kind(NodeId id) const { return nodes_[id].kind; }
  /// Element/PI name; empty for other kinds.
  const std::string& name(NodeId id) const { return nodes_[id].name; }
  /// Text/comment/CDATA/PI payload; empty for elements.
  const std::string& data(NodeId id) const { return nodes_[id].data; }
  void set_data(NodeId id, std::string data) { nodes_[id].data = std::move(data); }
  void set_name(NodeId id, std::string name) { nodes_[id].name = std::move(name); }

  NodeId parent(NodeId id) const { return nodes_[id].parent; }
  NodeId first_child(NodeId id) const { return nodes_[id].first_child; }
  NodeId last_child(NodeId id) const { return nodes_[id].last_child; }
  NodeId next_sibling(NodeId id) const { return nodes_[id].next_sibling; }
  NodeId prev_sibling(NodeId id) const { return nodes_[id].prev_sibling; }

  const std::vector<Attribute>& attributes(NodeId id) const {
    return nodes_[id].attributes;
  }
  /// Appends an attribute (does not deduplicate).
  void AddAttribute(NodeId id, std::string name, std::string value);
  /// First attribute value with the given (case-sensitive) name, or "".
  std::string_view GetAttribute(NodeId id, std::string_view name) const;
  bool HasAttribute(NodeId id, std::string_view name) const;
  /// Sets (replacing if present) an attribute.
  void SetAttribute(NodeId id, std::string_view name, std::string value);

  // --- Convenience queries ---
  /// All children of `id`, in order.
  std::vector<NodeId> Children(NodeId id) const;
  /// Child elements only.
  std::vector<NodeId> ChildElements(NodeId id) const;
  /// First child element with the given name (case-sensitive), or kInvalidNode.
  NodeId FirstChildElement(NodeId id, std::string_view name) const;
  /// Root element of the document (first element child of the root).
  NodeId DocumentElement() const;
  /// Concatenated text of all descendant text/CDATA nodes.
  std::string TextContent(NodeId id) const;
  /// Text of all descendant text/CDATA nodes joined by single spaces — the
  /// rule the XML store's subtree text uses, so `a<b>1</b>` reads "a 1" and
  /// term matching never sees two words fused.
  std::string JoinedText(NodeId id) const;
  /// The text of the sibling run `first` up to, not including, `end`
  /// (kInvalidNode: through the last sibling): each node's JoinedText, the
  /// non-empty ones joined by single spaces. This is a section body's text,
  /// whether the run was read from the store or found in a DOM.
  std::string JoinedText(NodeId first, NodeId end) const;
  /// Pre-order walk of the subtree rooted at `id` (inclusive).
  std::vector<NodeId> Descendants(NodeId id) const;
  /// Number of nodes in the subtree rooted at `id` (inclusive).
  size_t SubtreeSize(NodeId id) const;
  /// Depth of `id` (root is depth 0).
  int Depth(NodeId id) const;

  /// Heap and arena bytes this document holds: the node arena's capacity,
  /// every name, data and attribute string's heap capacity and every
  /// attribute vector (what a cached document costs).
  size_t ApproxBytes() const;

  /// Deep-copies the subtree rooted at `src` in `from` into this document,
  /// returning the new (detached) subtree root.
  NodeId ImportSubtree(const Document& from, NodeId src);

  /// Structural equality of two subtrees (kind, name, data, attributes,
  /// children — recursively).
  static bool SubtreeEquals(const Document& a, NodeId ida, const Document& b,
                            NodeId idb);

 private:
  struct Node {
    NodeKind kind = NodeKind::kDocument;
    std::string name;
    std::string data;
    std::vector<Attribute> attributes;
    NodeId parent = kInvalidNode;
    NodeId first_child = kInvalidNode;
    NodeId last_child = kInvalidNode;
    NodeId next_sibling = kInvalidNode;
    NodeId prev_sibling = kInvalidNode;
  };

  NodeId NewNode(NodeKind kind, std::string name, std::string data);

  std::vector<Node> nodes_;
};

}  // namespace netmark::xml

#endif  // NETMARK_XML_DOM_H_
