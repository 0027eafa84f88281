// Positional inverted index over text-bearing nodes.
//
// This is the reproduction of the Oracle Text index the paper's query path
// starts from: "the keyword-based context and content search is performed by
// first querying the text index for the search key. Each node returned from
// the index search is then processed based on its designated unique ROWID"
// (§2.1.4). Keys here are packed RowIds of stored text nodes.

#ifndef NETMARK_TEXTINDEX_INVERTED_INDEX_H_
#define NETMARK_TEXTINDEX_INVERTED_INDEX_H_

#include <cstdint>
#include <map>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "textindex/tokenizer.h"

namespace netmark::textindex {

/// Opaque key of an indexed unit (NETMARK packs node RowIds here).
using DocKey = uint64_t;

/// Postings entry: one indexed unit and the positions of the term within it.
struct Posting {
  DocKey key;
  std::vector<uint32_t> positions;
};

/// Tokenized-and-grouped text of one indexed unit, computed away from the
/// index (e.g. on an ingestion worker thread) so the single-writer index
/// commit skips re-tokenization. Terms are sorted; positions are sorted and
/// deduplicated per term.
struct PreparedPostings {
  std::vector<std::pair<std::string, std::vector<uint32_t>>> terms;

  bool empty() const { return terms.empty(); }
};

/// \brief Tokenizes `text` into the grouped form AddPrepared consumes.
/// Pure function — safe to call concurrently from many threads.
PreparedPostings PreparePostings(std::string_view text);

/// \brief In-memory positional inverted index with incremental add/remove.
///
/// The index is never persisted: the XML store rebuilds it from its tables
/// at every open, so the tables are its only durable copy.
///
/// Thread safety: internally synchronized. The single writer (Add /
/// AddPrepared / Remove) takes an internal lock exclusive; lookups take it
/// shared, so MVCC snapshot readers may query while a commit mutates the
/// index (docs/mvcc.md). Lookups are
/// writer-latest, not versioned — the query layer re-verifies every
/// candidate row against the heap at its snapshot epoch.
class InvertedIndex {
 public:
  InvertedIndex() = default;
  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;

  /// Indexes `text` under `key`. A key may be added once; re-adding merges
  /// (used when node text is updated: Remove then Add).
  void Add(DocKey key, std::string_view text);

  /// Indexes pre-tokenized text under `key` — the bulk ingestion path.
  /// Equivalent to Add(key, text) when `prepared` came from
  /// PreparePostings(text), but does no tokenization or grouping work.
  void AddPrepared(DocKey key, const PreparedPostings& prepared);

  /// Removes `key`'s contribution; `text` must be the text it was added
  /// with (the index stores no forward map, by design — the store has it).
  void Remove(DocKey key, std::string_view text);

  /// Keys containing `term` (case-folded), sorted ascending.
  std::vector<DocKey> LookupTerm(std::string_view term) const;

  /// Keys containing *all* the given terms (conjunction), sorted.
  std::vector<DocKey> MatchAll(const std::vector<std::string>& terms) const;

  /// Keys containing *any* of the given terms (disjunction), sorted.
  std::vector<DocKey> MatchAny(const std::vector<std::string>& terms) const;

  /// Keys containing the exact phrase (terms at consecutive positions).
  std::vector<DocKey> MatchPhrase(const std::vector<std::string>& words) const;

  /// Keys containing any term starting with `prefix`.
  std::vector<DocKey> MatchPrefix(std::string_view prefix) const;

  size_t num_terms() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return postings_.size();
  }
  size_t num_postings() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return num_postings_;
  }

 private:
  /// Requires mu_ held (any mode).
  const std::vector<Posting>* Find(std::string_view term) const;
  /// LookupTerm body; requires mu_ held (any mode).
  std::vector<DocKey> LookupTermLocked(std::string_view term) const;

  /// Guards postings_ and num_postings_ (see the class comment).
  mutable std::shared_mutex mu_;
  // term -> postings sorted by key.
  std::map<std::string, std::vector<Posting>, std::less<>> postings_;
  size_t num_postings_ = 0;
};

}  // namespace netmark::textindex

#endif  // NETMARK_TEXTINDEX_INVERTED_INDEX_H_
