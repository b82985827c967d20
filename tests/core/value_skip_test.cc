#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/join_search.h"
#include "core/topk_search.h"
#include "index/index_builder.h"
#include "testing/corpus.h"

namespace xtopk {
namespace {

using testing::MakeRandomTree;

/// Checks `got` against the complete-join reference (JoinSearch, scored,
/// sorted): the same number of results, the same scores position by
/// position, and every returned node a complete-join answer of that score
/// (ties may order nodes differently).
void ExpectMatchesCompleteTopK(const std::vector<SearchResult>& got,
                               const JDeweyIndex& jindex,
                               const std::vector<std::string>& query,
                               size_t k, const std::string& what) {
  JoinSearch complete(jindex, JoinSearchOptions{});
  std::vector<SearchResult> all = complete.Search(query);
  SortByScoreDesc(&all);
  ASSERT_EQ(got.size(), std::min(k, all.size())) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].score, all[i].score, 1e-9) << what << " result " << i;
    auto it = std::find(all.begin(), all.end(), got[i]);
    ASSERT_NE(it, all.end()) << what << " result " << i;
    EXPECT_NEAR(it->score, got[i].score, 1e-9) << what << " result " << i;
  }
}

TEST(ValueSkipTest, TopKValueRangeSkipMatchesCompleteJoin) {
  for (uint64_t seed : {401u, 402u, 403u, 404u}) {
    XmlTree tree = MakeRandomTree(seed, 800, 4, 8,
                                  {"alpha", "beta", "gamma"}, 0.1);
    IndexBuilder builder(tree, IndexBuildOptions{});
    JDeweyIndex jindex = builder.BuildJDeweyIndex();
    TopKIndex topk = builder.BuildTopKIndex(jindex);
    for (const auto& query : std::vector<std::vector<std::string>>{
             {"alpha", "beta"}, {"alpha", "beta", "gamma"}}) {
      TopKSearchOptions options;
      options.k = 6;
      options.fallback_to_complete = false;  // skips live in the star join
      TopKSearch search(topk, options);
      ExpectMatchesCompleteTopK(search.Search(query), jindex, query, 6,
                                "seed=" + std::to_string(seed));
    }
  }
}

TEST(ValueSkipTest, DisjointSubtreesTriggerColumnSkips) {
  // "left" only under the first child of the root, "right" only under the
  // second: at deep levels their column value ranges cannot intersect, so
  // the skip fires; any LCA sits near the root.
  XmlTree tree;
  NodeId root = tree.CreateRoot("r");
  NodeId a = tree.AddChild(root, "a");
  NodeId b = tree.AddChild(root, "b");
  for (int i = 0; i < 40; ++i) {
    NodeId la = tree.AddChild(a, "x");
    tree.AppendText(la, "left");
    NodeId lb = tree.AddChild(b, "x");
    tree.AppendText(lb, "right");
  }
  IndexBuildOptions build;
  build.index_tag_names = false;
  IndexBuilder builder(tree, build);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  TopKIndex topk = builder.BuildTopKIndex(jindex);

  TopKSearchOptions options;
  options.k = 4;
  options.fallback_to_complete = false;  // skips live in the star join
  TopKSearch with_skip(topk, options);
  auto got = with_skip.Search({"left", "right"});
  EXPECT_GT(with_skip.stats().columns_value_skipped, 0u);
  ExpectMatchesCompleteTopK(got, jindex, {"left", "right"}, 4, "disjoint");
}

}  // namespace
}  // namespace xtopk
