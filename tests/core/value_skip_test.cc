#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/topk_search.h"
#include "core/topk_star_join.h"
#include "index/index_builder.h"
#include "testing/corpus.h"

namespace xtopk {
namespace {

using testing::MakeRandomTree;

void ExpectSameTopK(const std::vector<SearchResult>& a,
                    const std::vector<SearchResult>& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node) << what << " result " << i;
    EXPECT_EQ(a[i].score, b[i].score) << what << " result " << i;  // bit-equal
  }
}

TEST(ValueSkipTest, TopKValueRangeSkipIsBitIdentical) {
  for (uint64_t seed : {401u, 402u, 403u, 404u}) {
    XmlTree tree = MakeRandomTree(seed, 800, 4, 8,
                                  {"alpha", "beta", "gamma"}, 0.1);
    IndexBuilder builder(tree, IndexBuildOptions{});
    JDeweyIndex jindex = builder.BuildJDeweyIndex();
    TopKIndex topk = builder.BuildTopKIndex(jindex);
    for (const auto& query : std::vector<std::vector<std::string>>{
             {"alpha", "beta"}, {"alpha", "beta", "gamma"}}) {
      TopKSearchOptions with_skip;
      with_skip.k = 6;
      with_skip.value_range_skip = true;
      with_skip.fallback_to_complete = false;  // skips live in the star join
      TopKSearchOptions no_skip = with_skip;
      no_skip.value_range_skip = false;
      TopKSearch search_skip(topk, with_skip);
      TopKSearch search_plain(topk, no_skip);
      ExpectSameTopK(search_skip.Search(query), search_plain.Search(query),
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

  options.value_range_skip = false;
  TopKSearch without(topk, options);
  ExpectSameTopK(got, without.Search({"left", "right"}), "disjoint");
}

TEST(ValueSkipTest, StarJoinIdBoundsDropOutsidersOnly) {
  // Joinable ids all lie in [100, 200); each relation also carries ids
  // outside that window that never complete. With the caller-guaranteed
  // bounds the join must return the same rows while skipping the rest.
  std::vector<RankedTuple> r1, r2;
  for (uint64_t id = 100; id < 200; ++id) {
    r1.push_back({id, 1.0 / static_cast<double>(id)});
    r2.push_back({id, 2.0 / static_cast<double>(id)});
  }
  for (uint64_t id = 0; id < 100; ++id) {
    r1.push_back({id, 0.9 / (1.0 + static_cast<double>(id))});
  }
  for (uint64_t id = 300; id < 400; ++id) {
    r2.push_back({id, 1.7 / static_cast<double>(id - 250)});
  }
  auto by_score = [](const RankedTuple& x, const RankedTuple& y) {
    return x.score > y.score;
  };
  std::sort(r1.begin(), r1.end(), by_score);
  std::sort(r2.begin(), r2.end(), by_score);

  StarJoinOptions plain;
  plain.k = 10;
  VectorRankedSource s1(r1), s2(r2);
  TopKStarJoin join_plain({&s1, &s2}, plain);
  auto want = join_plain.Run();

  StarJoinOptions bounded = plain;
  bounded.use_id_bounds = true;
  bounded.id_lo = 100;
  bounded.id_hi = 199;
  VectorRankedSource t1(r1), t2(r2);
  TopKStarJoin join_bounded({&t1, &t2}, bounded);
  auto got = join_bounded.Run();

  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << i;
    EXPECT_EQ(got[i].score, want[i].score) << i;
  }
  EXPECT_GT(join_bounded.stats().tuples_skipped, 0u);
  EXPECT_EQ(join_plain.stats().tuples_skipped, 0u);
}

TEST(ValueSkipTest, StarJoinFullRangeBoundsAreNoOp) {
  std::vector<RankedTuple> r1 = {{1, 1.0}, {2, 0.9}, {3, 0.2}};
  std::vector<RankedTuple> r2 = {{2, 0.8}, {3, 0.7}, {4, 0.6}};
  StarJoinOptions bounded;
  bounded.k = 2;
  bounded.use_id_bounds = true;  // default [0, UINT64_MAX]: nothing skipped
  VectorRankedSource s1(r1), s2(r2);
  TopKStarJoin join({&s1, &s2}, bounded);
  auto results = join.Run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].id, 2u);
  EXPECT_EQ(join.stats().tuples_skipped, 0u);
}

}  // namespace
}  // namespace xtopk
