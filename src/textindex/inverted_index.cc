#include "textindex/inverted_index.h"

#include <algorithm>
#include <mutex>
#include <shared_mutex>

namespace netmark::textindex {

PreparedPostings PreparePostings(std::string_view text) {
  // Group positions per term so each term's postings list is touched once at
  // commit time. Tokenize emits positions in ascending order, so each group's
  // position list is already sorted and unique.
  std::map<std::string, std::vector<uint32_t>, std::less<>> grouped;
  for (Token& tok : Tokenize(text)) {
    grouped[std::move(tok.term)].push_back(tok.position);
  }
  PreparedPostings out;
  out.terms.reserve(grouped.size());
  for (auto& [term, positions] : grouped) {
    out.terms.emplace_back(term, std::move(positions));
  }
  return out;
}

void InvertedIndex::Add(DocKey key, std::string_view text) {
  AddPrepared(key, PreparePostings(text));
}

void InvertedIndex::AddPrepared(DocKey key, const PreparedPostings& prepared) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (const auto& [term, positions] : prepared.terms) {
    std::vector<Posting>& list = postings_[term];
    auto it = std::lower_bound(list.begin(), list.end(), key,
                               [](const Posting& p, DocKey k) { return p.key < k; });
    if (it != list.end() && it->key == key) {
      // Merge (re-add after partial update).
      it->positions.insert(it->positions.end(), positions.begin(), positions.end());
      std::sort(it->positions.begin(), it->positions.end());
      it->positions.erase(std::unique(it->positions.begin(), it->positions.end()),
                          it->positions.end());
    } else {
      list.insert(it, Posting{key, positions});
      ++num_postings_;
    }
  }
}

void InvertedIndex::Remove(DocKey key, std::string_view text) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  for (const std::string& term : TokenizeTerms(text)) {
    auto map_it = postings_.find(term);
    if (map_it == postings_.end()) continue;
    std::vector<Posting>& list = map_it->second;
    auto it = std::lower_bound(list.begin(), list.end(), key,
                               [](const Posting& p, DocKey k) { return p.key < k; });
    if (it != list.end() && it->key == key) {
      list.erase(it);
      --num_postings_;
      if (list.empty()) postings_.erase(map_it);
    }
  }
}

const std::vector<Posting>* InvertedIndex::Find(std::string_view term) const {
  // Queries arrive in arbitrary case; the index stores folded terms.
  std::string folded;
  folded.reserve(term.size());
  for (char c : term) {
    folded += (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
  }
  auto it = postings_.find(folded);
  return it == postings_.end() ? nullptr : &it->second;
}

std::vector<DocKey> InvertedIndex::LookupTermLocked(std::string_view term) const {
  std::vector<DocKey> out;
  const std::vector<Posting>* list = Find(term);
  if (list == nullptr) return out;
  out.reserve(list->size());
  for (const Posting& p : *list) out.push_back(p.key);
  return out;
}

std::vector<DocKey> InvertedIndex::LookupTerm(std::string_view term) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return LookupTermLocked(term);
}

std::vector<DocKey> InvertedIndex::MatchAll(const std::vector<std::string>& terms) const {
  if (terms.empty()) return {};
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<DocKey> acc = LookupTermLocked(terms[0]);
  for (size_t i = 1; i < terms.size() && !acc.empty(); ++i) {
    std::vector<DocKey> next = LookupTermLocked(terms[i]);
    std::vector<DocKey> merged;
    std::set_intersection(acc.begin(), acc.end(), next.begin(), next.end(),
                          std::back_inserter(merged));
    acc = std::move(merged);
  }
  return acc;
}

std::vector<DocKey> InvertedIndex::MatchAny(const std::vector<std::string>& terms) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<DocKey> acc;
  for (const std::string& term : terms) {
    std::vector<DocKey> next = LookupTermLocked(term);
    std::vector<DocKey> merged;
    std::set_union(acc.begin(), acc.end(), next.begin(), next.end(),
                   std::back_inserter(merged));
    acc = std::move(merged);
  }
  return acc;
}

std::vector<DocKey> InvertedIndex::MatchPhrase(
    const std::vector<std::string>& words) const {
  if (words.empty()) return {};
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (words.size() == 1) return LookupTermLocked(words[0]);
  // Gather postings lists; bail if any word is absent.
  std::vector<const std::vector<Posting>*> lists;
  for (const std::string& w : words) {
    const std::vector<Posting>* list = Find(w);
    if (list == nullptr) return {};
    lists.push_back(list);
  }
  // Intersect keys, then check consecutive positions.
  std::vector<DocKey> out;
  for (const Posting& first : *lists[0]) {
    bool match_key = true;
    std::vector<const Posting*> entries = {&first};
    for (size_t i = 1; i < lists.size(); ++i) {
      auto it = std::lower_bound(lists[i]->begin(), lists[i]->end(), first.key,
                                 [](const Posting& p, DocKey k) { return p.key < k; });
      if (it == lists[i]->end() || it->key != first.key) {
        match_key = false;
        break;
      }
      entries.push_back(&*it);
    }
    if (!match_key) continue;
    // For each start position of the first word, require word i at start+i.
    for (uint32_t start : first.positions) {
      bool phrase = true;
      for (size_t i = 1; i < entries.size(); ++i) {
        const std::vector<uint32_t>& pos = entries[i]->positions;
        if (!std::binary_search(pos.begin(), pos.end(),
                                start + static_cast<uint32_t>(i))) {
          phrase = false;
          break;
        }
      }
      if (phrase) {
        out.push_back(first.key);
        break;
      }
    }
  }
  return out;
}

std::vector<DocKey> InvertedIndex::MatchPrefix(std::string_view prefix) const {
  std::string folded;
  folded.reserve(prefix.size());
  for (char c : prefix) {
    folded += (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
  }
  std::shared_lock<std::shared_mutex> lock(mu_);
  std::vector<DocKey> acc;
  for (auto it = postings_.lower_bound(folded); it != postings_.end(); ++it) {
    if (it->first.compare(0, folded.size(), folded) != 0) break;
    std::vector<DocKey> keys;
    keys.reserve(it->second.size());
    for (const Posting& p : it->second) keys.push_back(p.key);
    std::vector<DocKey> merged;
    std::set_union(acc.begin(), acc.end(), keys.begin(), keys.end(),
                   std::back_inserter(merged));
    acc = std::move(merged);
  }
  return acc;
}

}  // namespace netmark::textindex
