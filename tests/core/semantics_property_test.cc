// Cross-implementation property tests: on randomized trees, the join-based
// algorithm (both erasure modes, all join policies), the stack-based
// baseline, and the index-based baseline must produce exactly the node set
// and scores of the direct-from-definition oracle, for both ELCA and SLCA;
// the default top-K search must return the oracle's k best.
// This is the main correctness pin of the library.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "baseline/indexed_lookup.h"
#include "baseline/naive.h"
#include "baseline/stack_search.h"
#include "core/join_search.h"
#include "core/topk_search.h"
#include "index/index_builder.h"
#include "testing/corpus.h"

namespace xtopk {
namespace {

struct Case {
  uint64_t seed;
  size_t nodes;
  uint32_t max_children;
  uint32_t max_depth;
  double term_prob;
  size_t k;  // number of query keywords
};

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  return "seed" + std::to_string(c.seed) + "n" + std::to_string(c.nodes) +
         "d" + std::to_string(c.max_depth) + "k" + std::to_string(c.k);
}

class SemanticsPropertyTest : public ::testing::TestWithParam<Case> {};

void ExpectSameResults(const std::vector<SearchResult>& got_in,
                       const std::vector<SearchResult>& want_in,
                       bool check_scores, const std::string& label) {
  std::vector<SearchResult> got = got_in, want = want_in;
  SortByNode(&got);
  SortByNode(&want);
  std::set<NodeId> got_nodes, want_nodes;
  for (const auto& r : got) got_nodes.insert(r.node);
  for (const auto& r : want) want_nodes.insert(r.node);
  ASSERT_EQ(got_nodes, want_nodes) << label;
  ASSERT_EQ(got.size(), want.size()) << label << " (duplicate results)";
  if (check_scores) {
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_NEAR(got[i].score, want[i].score, 1e-6)
          << label << " node " << got[i].node;
    }
  }
}

TEST_P(SemanticsPropertyTest, AllAlgorithmsMatchOracle) {
  const Case& c = GetParam();
  std::vector<std::string> all_terms = {"alpha", "beta", "gamma", "delta",
                                        "epsilon"};
  std::vector<std::string> terms(all_terms.begin(), all_terms.begin() + c.k);
  XmlTree tree = testing::MakeRandomTree(c.seed, c.nodes, c.max_children,
                                         c.max_depth, terms, c.term_prob);

  IndexBuildOptions build_options;
  build_options.index_tag_names = false;  // only the planted terms matter
  IndexBuilder builder(tree, build_options);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  TopKIndex topk_index = builder.BuildTopKIndex(jindex);
  DeweyIndex dindex = builder.BuildDeweyIndex();
  NaiveOracle oracle(tree, dindex);

  for (Semantics semantics : {Semantics::kElca, Semantics::kSlca}) {
    auto want = oracle.Search(terms, semantics);
    std::string base_label =
        std::string(semantics == Semantics::kElca ? "ELCA" : "SLCA");

    // Join-based: every erasure mode and join policy.
    for (bool range_check : {true, false}) {
      for (JoinPolicy policy :
           {JoinPolicy::kDynamic, JoinPolicy::kForceMerge,
            JoinPolicy::kForceIndex}) {
        JoinSearchOptions options;
        options.semantics = semantics;
        options.use_range_check = range_check;
        options.planner.policy = policy;
        JoinSearch search(jindex, options);
        ExpectSameResults(search.Search(terms), want, /*check_scores=*/true,
                          base_label + " join-based");
      }
    }

    // Stack-based baseline (with scores).
    {
      StackSearchOptions options;
      options.semantics = semantics;
      StackSearch search(tree, dindex, options);
      ExpectSameResults(search.Search(terms), want, /*check_scores=*/true,
                        base_label + " stack-based");
    }

    // Index-based baseline (node sets; scores optional path).
    {
      IndexedLookupOptions options;
      options.semantics = semantics;
      options.compute_scores = true;
      IndexedLookupSearch search(tree, dindex, options);
      ExpectSameResults(search.Search(terms), want, /*check_scores=*/true,
                        base_label + " index-based");
    }

    // Top-K under the default budget (these lists are short, so it mostly
    // takes the floored complete route): the oracle's k best, in
    // ScoreDescLess order.
    std::vector<SearchResult> ranked = want;
    std::sort(ranked.begin(), ranked.end(), ScoreDescLess);
    for (size_t top_k : {1, 3, 10}) {
      TopKSearchOptions options;
      options.semantics = semantics;
      options.k = top_k;
      TopKSearch search(topk_index, options);
      std::vector<SearchResult> got = search.Search(terms);
      std::string label = base_label + " top-" + std::to_string(top_k);
      ASSERT_EQ(got.size(), std::min(top_k, ranked.size())) << label;
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].node, ranked[i].node) << label << " pos " << i;
        ASSERT_NEAR(got[i].score, ranked[i].score, 1e-6)
            << label << " pos " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomTrees, SemanticsPropertyTest,
    ::testing::Values(
        // Dense occurrences on tiny trees: nesting-heavy cases.
        Case{1, 30, 3, 4, 0.5, 2}, Case{2, 30, 3, 4, 0.5, 2},
        Case{3, 30, 3, 4, 0.5, 3}, Case{4, 50, 2, 8, 0.4, 2},
        Case{5, 50, 2, 8, 0.4, 3},
        // Sparser occurrences on mid-size trees.
        Case{6, 200, 4, 6, 0.15, 2}, Case{7, 200, 4, 6, 0.15, 3},
        Case{8, 300, 5, 5, 0.1, 2}, Case{9, 300, 5, 5, 0.1, 4},
        Case{10, 400, 3, 9, 0.08, 2}, Case{11, 400, 3, 9, 0.08, 3},
        // Deep chains: many levels, strong damping.
        Case{12, 150, 2, 12, 0.2, 2}, Case{13, 150, 2, 12, 0.2, 3},
        // Larger sweeps.
        Case{14, 800, 4, 7, 0.05, 2}, Case{15, 800, 4, 7, 0.05, 3},
        Case{16, 800, 4, 7, 0.12, 4}, Case{17, 1200, 6, 6, 0.04, 2},
        Case{18, 1200, 6, 6, 0.08, 5}, Case{19, 600, 8, 4, 0.1, 3},
        Case{20, 600, 2, 10, 0.06, 2},
        // Single-keyword queries: ELCA = all occurrences, SLCA = the
        // occurrences with no occurrence below them.
        Case{33, 200, 4, 8, 0.3, 1}, Case{34, 500, 3, 10, 0.15, 1},
        // Stress shapes: very wide, very deep, near-saturated occurrences.
        Case{35, 900, 16, 3, 0.2, 2}, Case{36, 900, 16, 3, 0.2, 3},
        Case{37, 300, 2, 20, 0.15, 2}, Case{38, 300, 2, 20, 0.1, 3},
        Case{39, 150, 3, 6, 0.9, 2}, Case{40, 150, 3, 6, 0.9, 4},
        Case{41, 1500, 5, 8, 0.03, 2}, Case{42, 1500, 5, 8, 0.06, 5}),
    CaseName);

}  // namespace
}  // namespace xtopk
