// Small utilities not covered elsewhere: result-sorting helpers and the
// timer.

#include <gtest/gtest.h>

#include "core/search_result.h"
#include "util/timer.h"

namespace xtopk {
namespace {

TEST(SearchResultTest, SortByScoreDescWithTieBreak) {
  std::vector<SearchResult> results = {
      {7, 2, 0.5}, {3, 2, 0.9}, {5, 3, 0.5}, {1, 1, 0.9}};
  SortByScoreDesc(&results);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].node, 1u);  // 0.9, smaller node first
  EXPECT_EQ(results[1].node, 3u);
  EXPECT_EQ(results[2].node, 5u);  // 0.5, smaller node first
  EXPECT_EQ(results[3].node, 7u);
}

TEST(SearchResultTest, SortByNode) {
  std::vector<SearchResult> results = {{9, 1, 0.1}, {2, 1, 0.2}, {5, 1, 0.3}};
  SortByNode(&results);
  EXPECT_EQ(results[0].node, 2u);
  EXPECT_EQ(results[1].node, 5u);
  EXPECT_EQ(results[2].node, 9u);
}

TEST(SearchResultTest, EqualityIsByNode) {
  SearchResult a{4, 2, 0.5}, b{4, 3, 0.9}, c{5, 2, 0.5};
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(TimerTest, MeasuresElapsedTime) {
  Timer timer;
  // Burn a bounded amount of work.
  volatile uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  double first = timer.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  EXPECT_LT(first, 5.0);
  EXPECT_NEAR(timer.ElapsedMillis(), timer.ElapsedSeconds() * 1e3,
              timer.ElapsedSeconds() * 100);
  timer.Reset();
  EXPECT_LE(timer.ElapsedSeconds(), first + 1.0);
}

}  // namespace
}  // namespace xtopk
