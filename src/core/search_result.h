#ifndef XTOPK_CORE_SEARCH_RESULT_H_
#define XTOPK_CORE_SEARCH_RESULT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "xml/xml_tree.h"

namespace xtopk {

/// Which LCA-based semantic variant a search evaluates (paper §II-A).
enum class Semantics {
  kElca,  ///< Exclusive LCA (XRank).
  kSlca,  ///< Smallest LCA.
};

/// One keyword-search answer: a subtree root with its ranking score. Every
/// algorithm in the library (join-based, top-K, and all baselines) produces
/// this type, so tests can diff result sets across implementations.
struct SearchResult {
  NodeId node = kInvalidNode;
  uint32_t level = 0;   ///< 1-based depth of the node.
  double score = 0.0;   ///< 0 when score computation is disabled.

  bool operator==(const SearchResult& other) const {
    return node == other.node;
  }
};

/// Score descending, node ascending tie-break (deterministic).
inline bool ScoreDescLess(const SearchResult& a, const SearchResult& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.node < b.node;
}

inline void SortByScoreDesc(std::vector<SearchResult>* results) {
  std::sort(results->begin(), results->end(), ScoreDescLess);
}

/// Sorts by node id (document order) for set comparison.
inline void SortByNode(std::vector<SearchResult>* results) {
  std::sort(results->begin(), results->end(),
            [](const SearchResult& a, const SearchResult& b) {
              return a.node < b.node;
            });
}

}  // namespace xtopk

#endif  // XTOPK_CORE_SEARCH_RESULT_H_
