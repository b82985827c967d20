#include "core/topk_search.h"

#include <gtest/gtest.h>

#include "core/join_search.h"
#include "index/index_builder.h"
#include "obs/metrics.h"
#include "testing/corpus.h"

namespace xtopk {
namespace {

using testing::MakeRandomTree;
using testing::MakeSmallCorpus;
using Ids = testing::SmallCorpusIds;

/// Reference: complete join-based search, scored, sorted, truncated.
std::vector<SearchResult> CompleteTopK(const JDeweyIndex& index,
                                       const std::vector<std::string>& terms,
                                       Semantics semantics, size_t k) {
  JoinSearchOptions options;
  options.semantics = semantics;
  JoinSearch search(index, options);
  auto results = search.Search(terms);
  SortByScoreDesc(&results);
  if (results.size() > k) results.resize(k);
  return results;
}

TEST(TopKSearchTest, SmallCorpusTop2Elca) {
  XmlTree tree = MakeSmallCorpus();
  IndexBuilder builder(tree);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  TopKIndex topk = builder.BuildTopKIndex(jindex);

  TopKSearchOptions options;
  options.k = 2;
  options.fallback_to_complete = false;  // the star join itself
  TopKSearch search(topk, options);
  auto got = search.Search({"xml", "data"});
  EXPECT_FALSE(search.stats().fell_back);
  auto want = CompleteTopK(jindex, {"xml", "data"}, Semantics::kElca, 2);
  ASSERT_EQ(got.size(), 2u);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node);
    EXPECT_NEAR(got[i].score, want[i].score, 1e-9);
  }
}

TEST(TopKSearchTest, KLargerThanResultSetReturnsAll) {
  XmlTree tree = MakeSmallCorpus();
  IndexBuilder builder(tree);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  TopKIndex topk = builder.BuildTopKIndex(jindex);
  TopKSearchOptions options;
  options.k = 100;
  TopKSearch search(topk, options);
  auto got = search.Search({"xml", "data"});
  EXPECT_EQ(got.size(), 4u);  // includes the root under recursive ELCA
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_GE(got[i - 1].score, got[i].score - 1e-12);
  }
}

TEST(TopKSearchTest, KZeroAndMissingKeyword) {
  XmlTree tree = MakeSmallCorpus();
  IndexBuilder builder(tree);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  TopKIndex topk = builder.BuildTopKIndex(jindex);
  TopKSearchOptions options;
  options.k = 0;
  TopKSearch zero(topk, options);
  EXPECT_TRUE(zero.Search({"xml", "data"}).empty());
  options.k = 5;
  TopKSearch missing(topk, options);
  EXPECT_TRUE(missing.Search({"xml", "zzz"}).empty());
}

struct TopKCase {
  uint64_t seed;
  size_t nodes;
  uint32_t max_depth;
  double term_prob;
  size_t query_k;  // keywords
  size_t top_k;    // results requested
};

class TopKEquivalenceTest : public ::testing::TestWithParam<TopKCase> {};

TEST_P(TopKEquivalenceTest, MatchesCompleteSearchTopK) {
  const TopKCase& c = GetParam();
  std::vector<std::string> all_terms = {"alpha", "beta", "gamma", "delta"};
  std::vector<std::string> terms(all_terms.begin(),
                                 all_terms.begin() + c.query_k);
  XmlTree tree =
      MakeRandomTree(c.seed, c.nodes, 4, c.max_depth, terms, c.term_prob);
  IndexBuildOptions build_options;
  build_options.index_tag_names = false;
  IndexBuilder builder(tree, build_options);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  TopKIndex topk_index = builder.BuildTopKIndex(jindex);

  for (Semantics semantics : {Semantics::kElca, Semantics::kSlca}) {
    for (bool grouped : {true, false}) {
      // fallback off runs the star join unbounded; on, the budgeted
      // default strategy.
      for (bool fallback : {false, true}) {
        TopKSearchOptions options;
        options.semantics = semantics;
        options.k = c.top_k;
        options.group_threshold = grouped;
        options.fallback_to_complete = fallback;
        TopKSearch search(topk_index, options);
        auto got = search.Search(terms);
        auto want = CompleteTopK(jindex, terms, semantics, c.top_k);
        ASSERT_EQ(got.size(), want.size())
            << "seed " << c.seed << " grouped " << grouped << " fallback "
            << fallback;
        for (size_t i = 0; i < got.size(); ++i) {
          // Score ties can permute nodes; scores must agree positionally.
          ASSERT_NEAR(got[i].score, want[i].score, 1e-6)
              << "seed " << c.seed << " pos " << i << " grouped " << grouped
              << " fallback " << fallback;
        }
        // Emission order is score-descending.
        for (size_t i = 1; i < got.size(); ++i) {
          ASSERT_GE(got[i - 1].score, got[i].score - 1e-9);
        }
        if (!fallback) {
          ASSERT_FALSE(search.stats().fell_back);
        }
      }
    }
  }
}

// The TopKIndex constructor is an adapter over a MemoryTermSource of the
// index's base: apart from where the score order comes from (prebuilt
// against derived per query) the two runs must be indistinguishable.
TEST_P(TopKEquivalenceTest, PrebuiltIndexMatchesMemorySource) {
  const TopKCase& c = GetParam();
  std::vector<std::string> all_terms = {"alpha", "beta", "gamma", "delta"};
  std::vector<std::string> terms(all_terms.begin(),
                                 all_terms.begin() + c.query_k);
  XmlTree tree =
      MakeRandomTree(c.seed, c.nodes, 4, c.max_depth, terms, c.term_prob);
  IndexBuildOptions build_options;
  build_options.index_tag_names = false;
  IndexBuilder builder(tree, build_options);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  TopKIndex topk_index = builder.BuildTopKIndex(jindex);
  MemoryTermSource memory(jindex);

  for (Semantics semantics : {Semantics::kElca, Semantics::kSlca}) {
    for (bool grouped : {true, false}) {
      for (bool fallback : {false, true}) {
        TopKSearchOptions options;
        options.semantics = semantics;
        options.k = c.top_k;
        options.group_threshold = grouped;
        options.fallback_to_complete = fallback;
        TopKSearch prebuilt(topk_index, options);
        TopKSearch derived(&memory, options);
        auto want = derived.Search(terms);
        auto got = prebuilt.Search(terms);
        std::string label = "seed " + std::to_string(c.seed) + " grouped " +
                            std::to_string(grouped) + " fallback " +
                            std::to_string(fallback);
        ASSERT_EQ(got.size(), want.size()) << label;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].node, want[i].node) << label << " pos " << i;
          EXPECT_EQ(got[i].level, want[i].level) << label << " pos " << i;
          EXPECT_EQ(got[i].score, want[i].score) << label << " pos " << i;
        }
        EXPECT_TRUE(prebuilt.stats() == derived.stats()) << label;
        EXPECT_TRUE(prebuilt.status().ok()) << label;
        EXPECT_TRUE(derived.status().ok()) << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomTrees, TopKEquivalenceTest,
    ::testing::Values(TopKCase{21, 60, 5, 0.4, 2, 3},
                      TopKCase{22, 60, 5, 0.4, 2, 10},
                      TopKCase{23, 150, 7, 0.2, 2, 5},
                      TopKCase{24, 150, 7, 0.2, 3, 5},
                      TopKCase{25, 300, 6, 0.12, 2, 10},
                      TopKCase{26, 300, 6, 0.12, 3, 10},
                      TopKCase{27, 500, 9, 0.07, 2, 10},
                      TopKCase{28, 500, 9, 0.07, 4, 10},
                      TopKCase{29, 900, 6, 0.05, 2, 10},
                      TopKCase{30, 900, 6, 0.05, 3, 25},
                      TopKCase{31, 250, 12, 0.15, 2, 8},
                      TopKCase{32, 250, 12, 0.15, 3, 1}),
    [](const ::testing::TestParamInfo<TopKCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "q" +
             std::to_string(info.param.query_k) + "top" +
             std::to_string(info.param.top_k);
    });

TEST(TopKSearchTest, EarlyTerminationReadsLessOnLargeResultSets) {
  // A corpus where the keywords co-occur often: the top-K search should
  // terminate without draining every column.
  XmlTree tree = MakeRandomTree(99, 2000, 5, 6, {"alpha", "beta"}, 0.3);
  IndexBuildOptions build_options;
  build_options.index_tag_names = false;
  IndexBuilder builder(tree, build_options);
  JDeweyIndex jindex = builder.BuildJDeweyIndex();
  TopKIndex topk_index = builder.BuildTopKIndex(jindex);

  TopKSearchOptions options;
  options.k = 5;
  options.fallback_to_complete = false;  // a property of the star join
  TopKSearch search(topk_index, options);
  auto results = search.Search({"alpha", "beta"});
  ASSERT_EQ(results.size(), 5u);
  uint64_t total_rows = jindex.Frequency("alpha") + jindex.Frequency("beta");
  // Entries are re-served per column, so a full drain would read far more
  // than one pass over the lists.
  EXPECT_LT(search.stats().entries_read, total_rows);
  EXPECT_GT(search.stats().early_emissions, 0u);
}

/// The complete route's top-K floor, read off the fallback's join_search
/// span.
struct FloorTrace {
  double levels = 0.0;
  double levels_skipped = 0.0;
  double results_unscored = 0.0;
  std::string termination;
};

FloorTrace FallbackFloorTrace(const obs::QueryTrace& trace) {
  FloorTrace out;
  const auto& spans = trace.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != "join_search") continue;
    int id = static_cast<int>(i);
    out.levels = trace.StatOr(id, "levels", -1.0);
    out.levels_skipped = trace.StatOr(id, "floor_levels_skipped", -1.0);
    out.results_unscored = trace.StatOr(id, "floor_results_unscored", -1.0);
    for (const auto& [key, value] : spans[i].labels) {
      if (key == "termination") out.termination = value;
    }
  }
  return out;
}

/// Builds the index of `tree` over its text only.
struct Indexed {
  explicit Indexed(const XmlTree& tree)
      : builder(tree, Options()),
        jindex(builder.BuildJDeweyIndex()),
        topk(builder.BuildTopKIndex(jindex)) {}
  static IndexBuildOptions Options() {
    IndexBuildOptions options;
    options.index_tag_names = false;
    return options;
  }
  IndexBuilder builder;
  JDeweyIndex jindex;
  TopKIndex topk;
};

void ExpectSameTopK(const std::vector<SearchResult>& got,
                    const std::vector<SearchResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].node, want[i].node) << "pos " << i;
    EXPECT_EQ(got[i].level, want[i].level) << "pos " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "pos " << i;
  }
}

TEST(TopKFloorTest, TiesAtTheKthScoreKeepTheNodeIdTieBreak) {
  // A chain of five nested ELCAs, each holding both keywords itself: all
  // five score alike, at levels 2..6. The deepest two fill the floor's
  // heap first; each shallower level's bound equals the k-th score, so the
  // floor must not skip it — the shallower nodes win on node id.
  XmlTree tree;
  NodeId parent = tree.CreateRoot("r");
  for (int depth = 0; depth < 5; ++depth) {
    parent = tree.AddChild(parent, "x");
    tree.AppendText(parent, "alpha beta");
  }
  Indexed index(tree);
  const std::vector<std::string> terms = {"alpha", "beta"};

  std::vector<SearchResult> complete =
      CompleteTopK(index.jindex, terms, Semantics::kElca, 100);
  ASSERT_EQ(complete.size(), 5u);
  for (const SearchResult& r : complete) {
    EXPECT_EQ(r.score, complete[0].score);  // more than k share the score
  }

  for (size_t k : {1, 2, 4}) {
    TopKSearchOptions options;
    options.k = k;
    TopKSearch search(index.topk, options);
    std::vector<SearchResult> got = search.Search(terms);
    EXPECT_TRUE(search.stats().fell_back);
    ExpectSameTopK(got, CompleteTopK(index.jindex, terms, Semantics::kElca, k));
  }
}

TEST(TopKFloorTest, FallbackOnDeepCorpusStopsAboveTheDeepResults) {
  // Twenty results sit at level 10 under a chain of eight wrappers. Once
  // the deepest level fills the k-heap, every shallower level's bound is
  // damped below the k-th score: the floor stops after one level.
  XmlTree tree;
  NodeId parent = tree.CreateRoot("r");
  for (int depth = 0; depth < 8; ++depth) parent = tree.AddChild(parent, "d");
  for (int i = 0; i < 20; ++i) {
    tree.AppendText(tree.AddChild(parent, "p"), "alpha beta");
  }
  Indexed index(tree);
  const std::vector<std::string> terms = {"alpha", "beta"};
  const uint32_t start_level = index.jindex.GetList("alpha")->max_length;
  ASSERT_EQ(start_level, 10u);

  obs::Counter& floor_stops =
      obs::MetricsRegistry::Global().GetCounter("core.join.floor_stops");
  const uint64_t stops_before = floor_stops.value();
  obs::QueryTrace trace;
  TopKSearchOptions options;
  options.k = 3;
  options.trace = &trace;
  TopKSearch search(index.topk, options);
  std::vector<SearchResult> got = search.Search(terms);
  ASSERT_TRUE(search.stats().fell_back);
  ExpectSameTopK(got, CompleteTopK(index.jindex, terms, Semantics::kElca, 3));

  FloorTrace floor = FallbackFloorTrace(trace);
  EXPECT_LT(floor.levels, static_cast<double>(start_level));
  EXPECT_EQ(floor.levels, 1.0);
  EXPECT_EQ(floor.levels_skipped, 9.0);
  EXPECT_EQ(floor.termination, "topk_floor");
  EXPECT_EQ(floor_stops.value(), stops_before + 1);
}

TEST(TopKFloorTest, LevelBelowTheKthScoreIsJoinedButNotScored) {
  // Results at level 10 (tf 2) fill the heap; the level-6 result (tf 1)
  // has a bound below their score and is left unscored, while the level-2
  // result (tf 3) keeps every shallower level in play and enters the top k.
  XmlTree tree;
  NodeId root = tree.CreateRoot("r");
  tree.AppendText(tree.AddChild(root, "top"),
                  "alpha alpha alpha beta beta beta");
  NodeId parent = root;
  for (int depth = 0; depth < 4; ++depth) parent = tree.AddChild(parent, "c");
  tree.AppendText(tree.AddChild(parent, "m"), "alpha beta");
  parent = root;
  for (int depth = 0; depth < 8; ++depth) parent = tree.AddChild(parent, "d");
  for (int i = 0; i < 5; ++i) {
    tree.AppendText(tree.AddChild(parent, "p"), "alpha alpha beta beta");
  }
  Indexed index(tree);
  const std::vector<std::string> terms = {"alpha", "beta"};

  obs::QueryTrace trace;
  TopKSearchOptions options;
  options.k = 3;
  options.trace = &trace;
  TopKSearch search(index.topk, options);
  std::vector<SearchResult> got = search.Search(terms);
  ASSERT_TRUE(search.stats().fell_back);
  std::vector<SearchResult> want =
      CompleteTopK(index.jindex, terms, Semantics::kElca, 3);
  ExpectSameTopK(got, want);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].level, 2u);

  FloorTrace floor = FallbackFloorTrace(trace);
  EXPECT_EQ(floor.results_unscored, 1.0);
  EXPECT_EQ(floor.levels_skipped, 0.0);
  EXPECT_EQ(floor.termination, "complete");
}

}  // namespace
}  // namespace xtopk
