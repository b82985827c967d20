// The budgeted top-K strategy (DESIGN.md §18): the star join runs under a
// budget of Σ|L_i| / kStarJoinBudgetDivisor entries read; correlated
// keywords prove their k results inside it, uncorrelated ones run out and
// the complete join plus a partial sort answers instead. Either way the
// answer is the complete result's top k.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "core/join_search.h"
#include "core/topk_search.h"
#include "index/index_builder.h"
#include "testing/corpus.h"

namespace xtopk {
namespace {

using testing::MakeRandomTree;

// Heap-held pieces so cross-references stay valid when Built moves.
struct Built {
  std::unique_ptr<XmlTree> tree;
  std::unique_ptr<IndexBuilder> builder;
  std::unique_ptr<JDeweyIndex> jindex;
  std::unique_ptr<TopKIndex> topk;
};

Built Index(XmlTree tree) {
  Built b;
  b.tree = std::make_unique<XmlTree>(std::move(tree));
  IndexBuildOptions options;
  options.index_tag_names = false;
  b.builder = std::make_unique<IndexBuilder>(*b.tree, options);
  b.jindex = std::make_unique<JDeweyIndex>(b.builder->BuildJDeweyIndex());
  b.topk = std::make_unique<TopKIndex>(b.builder->BuildTopKIndex(*b.jindex));
  return b;
}

Built Build(uint64_t seed, size_t nodes, double term_prob) {
  return Index(
      MakeRandomTree(seed, nodes, 4, 6, {"alpha", "beta"}, term_prob));
}

/// The complete result's top k, in SortByScoreDesc order.
std::vector<SearchResult> CompleteTopK(const Built& b,
                                       const std::vector<std::string>& terms,
                                       size_t k) {
  JoinSearch search(*b.jindex);
  std::vector<SearchResult> all = search.Search(terms);
  SortByScoreDesc(&all);
  if (all.size() > k) all.resize(k);
  return all;
}

void ExpectSameScores(const std::vector<SearchResult>& got,
                      const std::vector<SearchResult>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].score, want[i].score, 1e-6) << "rank " << i;
  }
}

TEST(HybridTest, HighCorrelationPicksTopKJoin) {
  // Both keywords in every record's title: the star join proves the top 10
  // after a few dozen entries, far inside its budget.
  Built b = Index(testing::MakeCorrelatedRecords(20000));
  TopKSearch search(*b.topk);
  auto results = search.Search({"xml", "data"});
  const TopKSearchStats& stats = search.stats();
  EXPECT_FALSE(stats.fell_back);
  EXPECT_EQ(stats.budget, (b.jindex->Frequency("xml") +
                           b.jindex->Frequency("data")) /
                              kStarJoinBudgetDivisor);
  EXPECT_LE(stats.entries_read, stats.budget);
  EXPECT_GT(stats.early_emissions, 0u);
  ExpectSameScores(results, CompleteTopK(b, {"xml", "data"}, 10));
}

TEST(HybridTest, LowCorrelationPicksCompleteJoin) {
  // A rare keyword beside a frequent one: no title holds both, so the star
  // join drains its first column without a completion and runs out.
  Built b = Index(testing::MakeRareTimesFrequentRecords(5000));
  TopKSearch search(*b.topk);
  auto results = search.Search({"rare", "common"});
  const TopKSearchStats& stats = search.stats();
  EXPECT_TRUE(stats.fell_back);
  EXPECT_EQ(stats.entries_read, stats.budget);
  EXPECT_TRUE(stats.planned);
  EXPECT_TRUE(search.status().ok());
  ExpectSameScores(results, CompleteTopK(b, {"rare", "common"}, 10));
  // The same query without the budget is the paper's star join, drained.
  TopKSearchOptions unbounded;
  unbounded.fallback_to_complete = false;
  TopKSearch star(*b.topk, unbounded);
  ExpectSameScores(star.Search({"rare", "common"}), results);
  EXPECT_FALSE(star.stats().fell_back);
  EXPECT_GT(star.stats().entries_read, 10 * stats.budget);
}

TEST(HybridTest, BothPlansReturnTheSameTopK) {
  for (uint64_t seed : {3ull, 4ull, 5ull}) {
    Built b = Build(seed, 800, 0.15);
    for (size_t k : {1u, 10u, 100u}) {
      TopKSearchOptions budgeted, star_only;
      budgeted.k = star_only.k = k;
      star_only.fallback_to_complete = false;
      TopKSearch auto_plan(*b.topk, budgeted), star_plan(*b.topk, star_only);
      auto a = auto_plan.Search({"alpha", "beta"});
      auto s = star_plan.Search({"alpha", "beta"});
      EXPECT_FALSE(star_plan.stats().fell_back);
      ASSERT_EQ(a.size(), s.size()) << seed;
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_NEAR(a[i].score, s[i].score, 1e-6) << seed << " pos " << i;
      }
      ExpectSameScores(a, CompleteTopK(b, {"alpha", "beta"}, k));
    }
  }
}

TEST(HybridTest, BudgetIsAShareOfTheListLengths) {
  Built b = Build(6, 1000, 0.25);
  uint64_t rows = b.jindex->Frequency("alpha") + b.jindex->Frequency("beta");
  TopKSearch search(*b.topk);
  search.Search({"alpha", "beta"});
  EXPECT_EQ(search.stats().budget, rows / kStarJoinBudgetDivisor);
  EXPECT_LE(search.stats().entries_read, search.stats().budget);

  TopKSearchOptions unbounded;
  unbounded.fallback_to_complete = false;
  TopKSearch star(*b.topk, unbounded);
  star.Search({"alpha", "beta"});
  EXPECT_EQ(star.stats().budget, 0u);
  EXPECT_FALSE(star.stats().fell_back);
}

TEST(HybridTest, MissingKeywordReadsNothing) {
  Built b = Build(8, 200, 0.2);
  TopKSearch search(*b.topk);
  EXPECT_TRUE(search.Search({"alpha", "zzz"}).empty());
  EXPECT_EQ(search.stats().entries_read, 0u);
  EXPECT_FALSE(search.stats().fell_back);
  EXPECT_TRUE(search.status().ok());
}

TEST(HybridTest, StatsRepeatExactly) {
  Built correlated = Index(testing::MakeCorrelatedRecords(20000));
  Built weak = Index(testing::MakeRareTimesFrequentRecords(5000));
  for (const auto& [built, terms] :
       {std::make_pair(&correlated, std::vector<std::string>{"xml", "data"}),
        std::make_pair(&weak, std::vector<std::string>{"rare", "common"})}) {
    TopKSearch first(*built->topk), second(*built->topk);
    auto a = first.Search(terms);
    auto c = second.Search(terms);
    EXPECT_TRUE(first.stats() == second.stats()) << terms[0];
    ASSERT_EQ(a.size(), c.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].node, c[i].node);
      EXPECT_EQ(a[i].score, c[i].score);
    }
  }
}

TEST(HybridTest, WideQueriesTakeTheCompleteRoute) {
  // The star join's source mask holds 31 keywords; wider queries go
  // straight to the complete route, with or without the budget.
  std::vector<std::string> terms;
  for (int i = 0; i < 40; ++i) terms.push_back("t" + std::to_string(i));
  Built b = Index(MakeRandomTree(9, 600, 4, 5, terms, 0.5));
  for (size_t width : {31u, 32u, 33u, 40u}) {
    std::vector<std::string> query(terms.begin(), terms.begin() + width);
    std::vector<SearchResult> want = CompleteTopK(b, query, 10);
    ASSERT_FALSE(want.empty()) << width;
    for (bool fallback : {true, false}) {
      TopKSearchOptions options;
      options.fallback_to_complete = fallback;
      TopKSearch search(*b.topk, options);
      ExpectSameScores(search.Search(query), want);
      if (width > kMaxStarJoinSources) {
        EXPECT_TRUE(search.stats().fell_back) << width;
        EXPECT_EQ(search.stats().entries_read, 0u) << width;
      }
    }
  }
}

// Auto-ticking fake clock: every read advances time by one step, so a
// budget of T steps expires at the T-th clock read after the token exists.
constexpr uint64_t kTickStep = 1000;
std::atomic<uint64_t> g_auto_now{0};
uint64_t AutoTickNow() {
  return g_auto_now.fetch_add(kTickStep, std::memory_order_relaxed);
}

TEST(HybridTest, DeadlineInFallbackReturnsTheProvenPrefix) {
  // k = 1000 cannot be proven inside the budget, but the first results
  // can: the star join emits a prefix, then gives way to the complete join.
  Built b = Index(testing::MakeCorrelatedRecords(20000));
  const size_t k = 1000;
  const std::vector<std::string> terms = {"xml", "data"};
  std::vector<SearchResult> full = CompleteTopK(b, terms, k);
  ASSERT_EQ(full.size(), k);

  bool saw_prefix = false, saw_complete = false;
  for (uint64_t steps = 1; steps <= 16; ++steps) {
    TopKSearchOptions options;
    options.k = k;
    options.deadline = DeadlineToken::AfterMicros(steps * kTickStep,
                                                  &AutoTickNow);
    TopKSearch search(*b.topk, options);
    auto got = search.Search(terms);
    const TopKSearchStats& stats = search.stats();
    if (search.status().ok()) {
      EXPECT_TRUE(stats.fell_back);
      ExpectSameScores(got, full);
      saw_complete = true;
      continue;
    }
    ASSERT_EQ(search.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_TRUE(stats.deadline_expired);
    // Only what the star join proved: never the top k of a partial
    // complete set.
    ASSERT_LT(got.size(), k) << steps;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].score, full[i].score, 1e-6) << steps << " " << i;
    }
    if (stats.fell_back && !got.empty()) saw_prefix = true;
  }
  EXPECT_TRUE(saw_prefix);
  EXPECT_TRUE(saw_complete);
}

}  // namespace
}  // namespace xtopk
